#!/usr/bin/env python3
"""Build and run the tmprof end-to-end benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload online-web --seed 42 --seconds 20 --trace 0

Configures and builds perfbench/ (which compiles the repository's src/
libraries) into .bench_build/perfbench, then runs one workload. The build
log goes to stderr; the benchmark's report and its final JSON line go to
stdout. Exits non-zero, without a result line, if the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
# A run measures for --seconds, then finishes the pass in flight.
RUN_SLACK_S = 120


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    try:
        if not build(build_dir):
            print("perfbench: build failed", file=sys.stderr)
            return 1
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.join(ROOT, ".bench_build", "perfbench-tmp")]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=args.seconds + RUN_SLACK_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
