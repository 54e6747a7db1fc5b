#!/usr/bin/env python3
"""Run the lifecycle benchmark repeatedly and print each metric's spread.

    python3 lifecycle_bench/steadiness.py [--workloads a,b] [--runs 10] [--first-seed 1]

Runs every workload --runs times, each with its own seed, through run.py
from the checkout root for BENCHMARK.json's run_seconds with tracing off,
and prints per metric the median, the first and third quartiles
(statistics.quantiles with n=4) and the spread (Q3 - Q1) / median. The
bounds in BENCHMARK.json are set from this output: a metric's spread should
stay below a third of its bound, and a "!" marks one that does not.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i, spec["run_seconds"])
            results.append(result)
            print(f"  {workload} seed {args.first_seed + i}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr, flush=True)
        failed_shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"== {workload}: {args.runs} runs, all correct: "
              f"{all(r['correct'] for r in results)}, failed shares: {failed_shares}")
        print(f"   {'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} "
              f"{'bound/3':>8s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name)
            limit = f"{bound / 3:8.4f}" if bound is not None else " " * 8
            flag = " !" if bound is not None and spread >= bound / 3 else ""
            print(f"   {name:40s} {median:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{limit}{flag}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
