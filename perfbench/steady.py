#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and summarise the spread.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--runs 10] [--seconds 10] [--trace 0]
                                [--seed 1] [--workloads vod_direct ...]

Run i uses seed `--seed + i`; the workload order alternates between runs
so slow drift of the machine does not land on one workload. For every
metric it prints the median, the quartiles (statistics.quantiles, n=4),
the inter-quartile spread (q3 - q1) / median and the full spread
(max - min) / median, and it fails (exit 1) when a run is not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["vod_direct", "vod_cdn_fine", "mp_chaos"]


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(workload, results):
    print("\n%s (%d runs)" % (workload, len(results)))
    print("  %-38s %14s %14s %14s %9s %9s" %
          ("metric", "median", "q1", "q3", "iqr/med", "rng/med"))
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        scale = abs(med) if med else float("nan")
        print("  %-38s %14.6g %14.6g %14.6g %9.4f %9.4f %s" %
              (name, med, q1, q3, (q3 - q1) / scale,
               (max(values) - min(values)) / scale, first["unit"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=WORKLOADS)
    args = parser.parse_args()

    results = {w: [] for w in args.workloads}
    all_correct = True
    for i in range(args.runs):
        order = args.workloads if i % 2 == 0 else list(reversed(args.workloads))
        for workload in order:
            result = run_once(workload, args.seed + i, args.seconds, args.trace)
            all_correct &= result["correct"] and result["failed"] == 0
            results[workload].append(result)
            sys.stderr.write("run %d %s seed %d: correct=%s failed=%d\n" %
                             (i, workload, args.seed + i, result["correct"],
                              result["failed"]))
    for workload in args.workloads:
        summarise(workload, results[workload])
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
