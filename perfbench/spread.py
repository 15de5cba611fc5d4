"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads diagrams codes --seeds 1 2 3 4 5

Runs `run.py --trace 0` once per workload and seed, one run at a time,
and prints each metric's median, quartiles and quartile spread (the
distance between the first and third quartile as a share of the
median) next to the bound `BENCHMARK.json` gives it.  Run it from the
root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int):
    """The run's end-to-end metrics and its wall-clock seconds."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("run failed (%s, seed %d):\n%s"
                         % (workload, seed, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("wrong answers (%s, seed %d):\n%s"
                         % (workload, seed, proc.stderr))
    return ({name: m["value"] for name, m in result["metrics"].items()},
            time.perf_counter() - t0)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    worst = 0.0
    for workload in args.workloads:
        runs, walls = zip(*(run_once(workload, seed, args.seconds)
                            for seed in args.seeds))
        print("%s (%d seeds; wall-clock seconds per run: median %.1f, max %.1f)"
              % (workload, len(runs), statistics.median(walls), max(walls)))
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print("  %-16s median %12.5g  q1 %12.5g  q3 %12.5g  spread %.4f"
                  "  bound %.2f%s" % (name, med, q1, q3, spread, bound,
                                      "  WIDE" if spread > bound / 3 else ""))
            print("  %16s %s" % ("runs", " ".join("%.4g" % v for v in values)))
        sys.stdout.flush()
    print("largest spread / bound (setup_s excluded): %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
