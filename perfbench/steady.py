#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics across seeds.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]

Runs each workload --runs times untraced, for BENCHMARK.json's
run_seconds, with seeds 1..runs, and prints per metric the median, the
quartiles (statistics.quantiles, n=4) and their distance as a share of
the median, beside the metric's bound from BENCHMARK.json, plus the
failed share of attempted operations. Used to set each metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst, worst_name = 0.0, None
    for w in workloads:
        values, shares = {}, set()
        for seed in range(1, args.runs + 1):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, universal_newlines=True)
            if out.returncode != 0:
                print("%s seed %d: exit %d" % (w, seed, out.returncode))
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            shares.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())), flush=True)
        print("\n%s: failed/attempted %s" % (w, sorted(
            {"%d/%d" % s for s in shares})))
        print("  %-28s %12s %12s %12s %8s %7s" % ("metric", "q1", "median", "q3", "iqr%", "bound%"))
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread / bounds[name] > worst:
                worst, worst_name = spread / bounds[name], "%s %s" % (w, name)
            print("  %-28s %12.4f %12.4f %12.4f %8.2f %7.0f" % (
                name, q1, med, q3, 100 * spread, 100 * bounds[name]))
        print(flush=True)
    print("largest spread / bound: %.2f (%s)" % (worst, worst_name))


if __name__ == "__main__":
    main()
