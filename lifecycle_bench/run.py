#!/usr/bin/env python3
"""Build and run the Quilt lifecycle benchmark from the checkout it sits in.

    python3 lifecycle_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds lifecycle_bench/ (which compiles ../src) under
.bench_build/lifecycle_bench at the checkout root, runs the output checks'
own tests, then runs the benchmark. Build output goes to standard error; the
benchmark's standard output, whose last line is the JSON result, passes
through. Any failure exits non-zero without printing a result.

setup_s is a cold set-up: a second set-up in the same process is a warm one.
One cold set-up takes about a millisecond and lands in a fast or a slow mode
at random, so with --trace 0 the benchmark also sets up COLD_SETUPS times in
fresh processes, half before the run and half after it, and setup_s is the
fastest of these and of the run's own.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "lifecycle_bench")
BINARY = os.path.join(BUILD_DIR, "lifecycle_bench")
COLD_SETUPS = 16


def build():
    """Configures (once) and builds the benchmark; raises on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True, stdout=sys.stderr)
    subprocess.run([os.path.join(BUILD_DIR, "checks_test")], check=True, stdout=sys.stderr)


def cold_setups(workload, seed, count):
    """Host seconds of `count` cold set-ups, each in a fresh process."""
    command = [BINARY, "--workload", workload, "--seed", str(seed), "--setup-only", "1"]
    return [float(subprocess.run(command, check=True, stdout=subprocess.PIPE,
                                 text=True).stdout.split()[-1]) for _ in range(count)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"lifecycle_bench: build failed: {error}", file=sys.stderr)
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-out",
                    os.path.join(BUILD_DIR, f"spans-{args.workload}-{args.seed}.json")]
        return subprocess.run(command).returncode

    try:
        setups = cold_setups(args.workload, args.seed, COLD_SETUPS // 2)
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if run.returncode != 0:
            sys.stdout.write(run.stdout)
            return run.returncode
        setups += cold_setups(args.workload, args.seed, COLD_SETUPS - COLD_SETUPS // 2)
    except (subprocess.CalledProcessError, OSError, ValueError, IndexError) as error:
        print(f"lifecycle_bench: cold set-up failed: {error}", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    result = json.loads(lines[-1])
    setup = result["metrics"]["setup_s"]
    setup["value"] = min([setup["value"]] + setups)
    print("\n".join(lines[:-1]))
    print(f"  setup_s, fastest of {len(setups) + 1} cold set-ups: {setup['value']:.6f} s")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
