"""stabrel benchmark runner.

    python3 perfbench/run.py --workload diagrams --seed 1 --seconds 25 --trace 0

Run from the root of a stabrel checkout; the engine is imported from
its `src/` directory.  Each workload is a closed loop: one client, one
process, one thread, the next operation sent when the previous one has
been answered.  Every answer is checked against a reference that does
not come from the engine (see `workloads.py`).

With `--trace 0` the run reports the end-to-end metrics; with
`--trace 1` it runs a fixed number of rounds, alternately untraced and
traced, each on inputs of its own, and reports the per-layer metrics
with the tracing overhead.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# failed_ratio is left out: it is 0 on every workload the benchmark
# gates, and every result carries `attempted` and `failed`.
END_TO_END = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_RUNS = 5          # set-ups per run; setup_s is their median
SETUP_PROBES = 30       # host probes after each set-up
PROBES_PER_OP = 2       # host probes after each operation
PROBE_WINDOW = 3        # an operation's factor uses the probes of the
                        # operations this many places before and after it
MIN_BEYOND_TAIL = 10    # samples the tail percentile must leave above it


class OpTimeout(Exception):
    """An operation ran past its workload's time limit."""


def _alarm(signum, frame):
    raise OpTimeout()


def fail(message: str) -> None:
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def metadata(args) -> dict:
    import numpy
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path) as handle:
            src_lines += sum(1 for _ in handle)
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "machine": platform.machine(), "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "src_lines": src_lines}


def set_up(args, work_dir: str, tracer=None):
    """Import the engine and build the workload's fixed objects.

    Returns (workload, host probe, seconds of set-up at the host's
    nominal speed): the import plus `setup`, without the benchmark's own
    input generation.  The build is divided by the host factor like an
    operation.  The import -- file reads, unmarshalling, loading numpy's
    extension modules -- slowed on a loaded host by about the square root
    of what the compute probe slowed by (1.28 against 1.65 times), so it
    is divided by the square root of the factor.
    """
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import workloads
    import stabrel
    t_import = time.perf_counter() - t0
    if not os.path.abspath(stabrel.__file__).startswith(SRC + os.sep):
        fail("imported stabrel from %s, not from %s" % (stabrel.__file__, SRC))
    if args.workload not in workloads.WORKLOADS:
        fail("unknown workload %r (known: %s)"
             % (args.workload, ", ".join(workloads.WORKLOADS)))
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, work_dir)
    if tracer is not None:
        tracer.install(stabrel)
        tracer.begin_phase("setup")
    t0 = time.perf_counter()
    wl.setup()
    t_build = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    from host import HostSpeed  # after the timing: it imports numpy
    host = HostSpeed()
    factor = host.factor(host.probe(SETUP_PROBES))
    return wl, host, t_import / math.sqrt(factor) + t_build / factor


class Loop:
    """Runs rounds of operations, timing each and checking its answer.

    After every operation the host is probed (see `host.py`); each
    operation's time is divided by the factor of the probes taken around
    it, so it reads as at the host's nominal speed.
    """

    def __init__(self, wl, host, tracer=None):
        self.wl = wl
        self.host = host
        self.tracer = tracer
        self.records = []         # (label, measured seconds, answered correctly)
        self.probes = []          # host probe samples after each operation
        self.op_time = 0.0        # measured seconds in operations
        self.failures = []
        self.rounds = 0

    @property
    def attempted(self) -> int:
        return len(self.records)

    def run_round(self, index: int) -> bool:
        ops = self.wl.round(index)
        for op in ops:
            self.one(op)
            self.probes.append(self.host.probe(PROBES_PER_OP))
        self.rounds += 1
        return bool(ops)

    def nominal(self):
        """(label, seconds at nominal host speed, correct) per operation."""
        out = []
        for i, (label, dt, ok) in enumerate(self.records):
            near = self.probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
            factor = self.host.factor([t for ts in near for t in ts])
            out.append((label, dt / factor, ok))
        return out

    def one(self, op) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.op = self.attempted
        error = None
        signal.setitimer(signal.ITIMER_REAL, self.wl.op_limit_s)
        t0 = time.perf_counter()
        try:
            got = op.call()
        except Exception as exc:  # a crash is a failed operation, not a stop
            error = exc
        finally:
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.op_time += dt
        ok = False
        if error is not None:
            if tracer is not None:
                tracer.reset_stack()
            reason = ("over %.1f s" % self.wl.op_limit_s
                      if isinstance(error, OpTimeout)
                      else "%s: %s" % (type(error).__name__, error))
        else:
            try:
                ok = op.check(got)
            except Exception as exc:
                reason = "check raised %s: %s" % (type(exc).__name__, exc)
            else:
                reason = "wrong answer"
        self.records.append((op.label, dt, ok))
        if not ok:
            self.failures.append((op.label, reason))

    def timed(self, seconds: float) -> None:
        """Whole rounds until `seconds` of operation time have passed and
        the tail percentile has enough samples above it (capped at three
        times `seconds`)."""
        need = math.ceil(MIN_BEYOND_TAIL / (1 - self.wl.tail_pct / 100.0))
        while self.run_round(self.rounds):
            if self.op_time >= 3 * seconds:
                break
            if self.op_time >= seconds and self.attempted >= need:
                break


def shape_medians(latencies) -> dict:
    """Median latency of each operation shape (label) over the run."""
    by_shape = defaultdict(list)
    for label, dt in latencies:
        by_shape[label].append(dt)
    return {label: statistics.median(v) for label, v in by_shape.items()}


def end_to_end(loop: Loop, setup_s: float):
    """The end-to-end metrics, and the same statistics on raw latencies.

    Every statistic is taken over single operations, each timed at the
    host's nominal speed: ops_per_s is the correctly answered operations
    over the time of all operations, and the latencies are those of the
    correctly answered ones.
    """
    wl = loop.wl
    nominal = loop.nominal()
    raw = [dt for _, dt, ok in loop.records if ok]
    correct = [dt for _, dt, ok in nominal if ok]
    beyond = len(correct) * (1 - wl.tail_pct / 100.0)
    if beyond < MIN_BEYOND_TAIL:
        print("perfbench: only %.0f samples above p%g" % (beyond, wl.tail_pct),
              file=sys.stderr)

    def stats(lat, total):
        if not lat:
            return 0.0, 0.0, 0.0
        return (len(lat) / total, 1e3 * statistics.median(lat),
                1e3 * percentile(lat, wl.tail_pct))

    ops_per_s, p50, tail = stats(correct, sum(dt for _, dt, _ in nominal))
    metrics = {
        "ops_per_s": ops_per_s,
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_ops, raw_p50, raw_tail = stats(raw, loop.op_time)
    medians = shape_medians((label, dt) for label, dt, ok in nominal if ok)
    unfiltered = {"raw_ops_per_s": raw_ops,
                  "raw_latency_p50_ms": raw_p50,
                  "raw_latency_tail_ms": raw_tail,
                  "host_factor": loop.host.factor(
                      [t for ts in loop.probes for t in ts]),
                  "shape_median_ms": {k: round(1e3 * v, 3)
                                      for k, v in sorted(medians.items())}}
    return metrics, unfiltered


def setup_samples(args, count: int):
    """Set-up times of fresh interpreters, one after another, at the
    host's nominal speed."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            fail("set-up run failed:\n" + proc.stderr)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stabrel", "__init__.py")):
        fail("no stabrel sources under %s" % SRC)
    if not os.path.isdir(os.path.join(ROOT, "fixtures")):
        fail("no fixtures directory under %s" % ROOT)

    out_dir = os.path.join(HERE, "out")
    work_dir = os.path.join(out_dir, "work-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        if args.setup_only:
            _, _, setup_s = set_up(args, work_dir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            return traced_run(args, work_dir, out_dir)
        wl, host, setup_s = set_up(args, work_dir)
        loop = Loop(wl, host)
        loop.timed(args.seconds)
        samples = [setup_s] + setup_samples(args, SETUP_RUNS - 1)
        metrics, unfiltered = end_to_end(loop, statistics.median(samples))
        report(args, loop.attempted, loop.failures,
               {m: (metrics[m], unit) for m, unit in END_TO_END.items()},
               dict(unfiltered, setup_samples_s=samples, rounds=loop.rounds,
                    samples=loop.attempted - len(loop.failures),
                    tail_percentile=wl.tail_pct))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def traced_run(args, work_dir: str, out_dir: str) -> int:
    """Fixed rounds, alternately untraced and traced; per-layer metrics.

    Every round has inputs of its own, so no traced operation finds a
    cache warmed by an untraced copy of itself.  Which of the two kinds
    runs first alternates from pair to pair, so that neither sees the
    run's later, warmer state more often.
    """
    from spans import UNITS, Tracer
    tracer = Tracer()
    wl, host, _ = set_up(args, work_dir, tracer)
    setup_factor = host.factor(host.probe(SETUP_PROBES))
    pairs = max(2, int(args.seconds // 10))
    import stabrel
    plain = Loop(wl, host)
    traced = Loop(wl, host, tracer)
    Loop(wl, host).run_round(2 * pairs)  # warm-up, on inputs of its own
    tracer.begin_phase("run")
    for pair in range(pairs):
        order = (plain, traced) if pair % 2 == 0 else (traced, plain)
        for offset, loop in enumerate(order):
            if loop is traced:
                tracer.install(stabrel)
            loop.run_round(2 * pair + offset)
            if loop is traced:
                tracer.uninstall()
    # span times, like latencies, at the host's nominal speed
    factor = host.factor([t for ts in traced.probes for t in ts])
    metrics = {name: value / factor if name.endswith("_s") else value
               for name, value in tracer.metrics("run").items()}
    metrics["trace.overhead_ratio"] = (
        sum(dt for _, dt, _ in traced.nominal())
        / sum(dt for _, dt, _ in plain.nominal()) - 1.0)
    for layer, value in tracer.metrics("setup").items():
        if layer.endswith(".self_s"):
            metrics["setup." + layer] = value / setup_factor
    meta = metadata(args)
    tracer.dump(os.path.join(out_dir, "spans-%s-seed%d.json"
                             % (args.workload, args.seed)), meta)
    report(args, plain.attempted + traced.attempted,
           plain.failures + traced.failures,
           {m: (metrics[m], unit) for m, unit in UNITS.items()},
           {"pairs": pairs, "untraced_s": plain.op_time,
            "traced_s": traced.op_time, "host_factor": factor}, meta)
    return 0


def report(args, attempted, failures, metrics, extra, meta=None) -> None:
    for label, reason in failures[:20]:
        print("perfbench: FAILED %s (%s)" % (label, reason), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print("perfbench: %-34s %14.6g %s" % (name, value, unit),
              file=sys.stderr)
    meta = dict(meta or metadata(args), **extra)
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
