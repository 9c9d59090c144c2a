#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Run from the root of a checkout:

    python3 perfbench/spread.py [--runs 10] [--verbose] [WORKLOAD ...]

Runs each workload (default: all in BENCHMARK.json) untraced once per
seed 1, 2, ..., runs, with BENCHMARK.json's run_seconds, and prints for
every end-to-end metric the median and the interquartile range as a share
of the median (statistics.quantiles(values, n=4)), next to the metric's
bound.  Exits non-zero if a run fails or, for metrics other than setup_s,
a spread exceeds a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    t0 = time.time()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: wrong outputs" % (workload, seed))
    print("  seed %d: %.1f s" % (seed, time.time() - t0), file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--verbose", action="store_true",
                    help="also print every run's value")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    steady = True
    for w in names:
        runs = [run_once(w, seed, bench["run_seconds"])
                for seed in range(1, args.runs + 1)]
        print("%s (%d runs)" % (w, len(runs)))
        for metric in runs[0]:
            values = [r[metric] for r in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / abs(med) if med else float("inf")
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
                steady = False
            print("  %-28s median %14.4f  spread %7.4f  bound %s%s" %
                  (metric, med, spread, bound, flag))
            if args.verbose:
                print("    " + " ".join("%.4g" % v for v in values))
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
