"""Reproduce the ROADMAP's baseline table with the benchmark's tracer.

    python3 perfbench/baseline.py [--repeats 7]

Each row calls the engine as the table describes, with the tracer
installed, and reads the duration of the matching span (for example
`qec.measurement` for the measurement build).  The CLI rows time a
fresh interpreter.  The output is a Markdown table: the ROADMAP's
number, this machine's median and quartiles, and whether the two
differ by more than the quartile spread.  The times are as measured,
not adjusted for the host's speed; the host factor probed before and
after the table (see `host.py`) says how loaded the host was.  Run it
from the root of a checkout.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import stabrel  # noqa: E402
from stabrel import diagram as dg, doubled as db, linalg, qec  # noqa: E402

import gen  # noqa: E402
from host import HostSpeed  # noqa: E402
from spans import Tracer  # noqa: E402


def span_seconds(tracer: Tracer, name: str, call, repeats: int):
    """Duration of the outermost `name` span of each of `repeats` calls."""
    out = []
    for _ in range(repeats):
        start = len(tracer.spans)
        tracer.reset_stack()
        call()
        out.append(next(s[3] - s[2] for s in tracer.spans[start:]
                        if s[1] == name))
    return out


def cli_seconds(argv, repeats: int):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "stabrel.cli"] + argv, cwd=ROOT,
                       env=env, check=True, capture_output=True, timeout=120)
        out.append(time.perf_counter() - t0)
    return out


def rows(tracer: Tracer, repeats: int):
    """(label, ROADMAP value in seconds, samples in seconds)."""
    rng = random.Random(5)
    yield ("db.z_spider(5,1,1)", 3.1e-3,
           span_seconds(tracer, "doubled.z_spider",
                        lambda: db.z_spider(5, 1, 1), repeats))
    yield ("db.fourier(5)", 10e-3,
           span_seconds(tracer, "doubled.fourier", lambda: db.fourier(5),
                        repeats))
    yield ("db.measure_x(5)", 13.5e-3,
           span_seconds(tracer, "doubled.measure_x", lambda: db.measure_x(5),
                        repeats))
    teleport = os.path.join(ROOT, "fixtures", "teleport.diagram")
    yield ("evaluate(teleport), p=5", 74e-3,
           span_seconds(tracer, "diagram.evaluate",
                        lambda: dg.evaluate(dg.parse_file(teleport, p=5)),
                        repeats))
    codes = {}
    for n, parse_s, build_s, syn_s in ((9, 22e-3, None, None),
                                       (17, None, 236e-3, 71e-3),
                                       (33, 339e-3, 802e-3, 171e-3)):
        text = gen.RepetitionCode(3, n).code_text()
        if parse_s is not None:
            yield ("repetition p=3 parse n=%d" % n, parse_s,
                   span_seconds(tracer, "qec.parse_code_file",
                                lambda: qec.parse_code_file(text), repeats))
        if build_s is None:
            continue

        def build():
            codes[n] = qec.parse_code_file(text)[0]
            qec.measurement(codes[n])
        # the parse is not part of the build: take the measurement span
        yield ("qec.measurement build n=%d" % n, build_s,
               span_seconds(tracer, "qec.measurement", build,
                            max(3, repeats // 2)))
        error = np.array([rng.randrange(3) for _ in range(2 * n)])
        yield ("qec.syndrome per error n=%d" % n, syn_s,
               span_seconds(tracer, "qec.syndrome",
                            lambda: qec.syndrome(codes[n], error), repeats))
    for r, c, want in ((128, 256, 94e-3), (256, 512, 554e-3)):
        mat = np.array([[rng.randrange(5) for _ in range(c)] for _ in range(r)],
                       dtype=np.int64)
        yield ("rref_mod %dx%d, p=5" % (r, c), want,
               span_seconds(tracer, "linalg.rref_mod",
                            lambda: linalg.rref_mod(mat, 5),
                            max(3, repeats // 2)))
    fixtures = os.path.join(ROOT, "fixtures")
    for name, want in (("teleport", 0.28), ("repetition3", 0.45)):
        yield ("CLI demo %s, with interpreter start" % name, want,
               cli_seconds(["demo", name, "--fixtures-dir", fixtures],
                           repeats))


def fmt(seconds: float, like: float) -> str:
    """`seconds` in the unit that suits `like`."""
    return "%.3g s" % seconds if like >= 0.2 else "%.3g ms" % (1e3 * seconds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    host = HostSpeed()
    before = host.factor(host.probe(100))
    tracer = Tracer()
    tracer.install(stabrel)
    tracer.begin_phase("baseline")
    print("| row | ROADMAP | median | q1 - q3 | differs by more than the spread |")
    print("| --- | --- | --- | --- | --- |")
    for label, roadmap, samples in rows(tracer, args.repeats):
        q1, med, q3 = statistics.quantiles(samples, n=4)
        differs = abs(med - roadmap) > (q3 - q1)
        print("| %s | %s | %s | %s - %s | %s |" % (
            label, fmt(roadmap, roadmap), fmt(med, roadmap),
            fmt(q1, roadmap), fmt(q3, roadmap),
            "yes (%+.0f %%)" % (100 * (med / roadmap - 1)) if differs else "no"))
        sys.stdout.flush()
    tracer.uninstall()
    print("\nhost factor %.2f before, %.2f after (1.00 = nominal speed)"
          % (before, host.factor(host.probe(100))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
