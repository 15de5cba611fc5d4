"""Every end-to-end metric of every workload, and the traced breakdown.

    python3 perfbench/report.py [--seed 1] [--seconds 25]

Runs `run.py` on the four workloads -- the three `BENCHMARK.json`
gates and `wide_prime`, whose operations fail at the seed -- once
untraced and once traced, one run at a time, and prints two tables with
every metric by name and unit.  The untraced table adds the sixth
end-to-end metric, `failed_ratio`, as each result's failed over
attempted operations.  Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("diagrams", "syndromes", "codes", "wide_prime")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit("%s failed:\n%s" % (" ".join(argv), proc.stderr))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["meta"] = json.loads(lines[-2][len("# meta "):])
    if not trace:
        result["metrics"]["failed_ratio"] = {
            "value": result["failed"] / result["attempted"], "unit": "fraction"}
    return result


def table(results: dict, title: str) -> None:
    names = list(next(iter(results.values()))["metrics"])
    print("\n%s\n" % title)
    print("| metric | unit | " + " | ".join(results) + " |")
    print("| --- | --- |" + " --- |" * len(results))
    for name in names:
        unit = next(iter(results.values()))["metrics"][name]["unit"]
        print("| %s | %s | %s |" % (name, unit, " | ".join(
            "%.6g" % r["metrics"][name]["value"] for r in results.values())))
    print("| (attempted / failed) | count | %s |" % " | ".join(
        "%d / %d" % (r["attempted"], r["failed"]) for r in results.values()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    plain = {w: run(w, args.seed, args.seconds, 0) for w in WORKLOADS}
    meta = plain["diagrams"]["meta"]
    print("seed %d; %s, %s cores, Python %s, numpy %s; src/ has %d lines"
          % (args.seed, meta["platform"], meta["nproc"],
             meta["python"], meta["numpy"], meta["src_lines"]))
    print("tail percentile: " + ", ".join(
        "%s p%g" % (w, r["meta"]["tail_percentile"]) for w, r in plain.items()))
    table(plain, "End-to-end (untraced)")
    traced = {w: run(w, args.seed, args.seconds, 1) for w in WORKLOADS}
    table(traced, "Per layer (traced; trace.overhead_ratio compares "
                  "traced with untraced rounds of the same mix)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
