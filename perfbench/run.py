#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds perfbench/ (and through it the library under src/) into
.bench_build/ at the root of the checkout, runs one workload, and prints
the workload's JSON result as the last line of standard output.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Workloads: forest_sharded_churn, kp12_two_pass, spanner_checkpoint_resume
(see perfbench.cc and BENCHMARK.json).  Build output goes to standard
error.  The exit code is nonzero when the build fails, when the library
sources are missing, or when any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("forest_sharded_churn", "kp12_two_pass", "spanner_checkpoint_resume")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "stream_engine.h")):
        fail("the library sources (src/) are not in this checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", BUILD_JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, target)


def run(command):
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return done


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the tracing harness self-test")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        os.makedirs(WORK_DIR, exist_ok=True)
        done = run([binary, WORK_DIR])
        sys.stdout.write(done.stdout)
        sys.exit(done.returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    binary = build("perfbench")
    os.makedirs(WORK_DIR, exist_ok=True)
    done = run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--workdir", WORK_DIR])
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the benchmark printed no result (exit code %d)" % done.returncode)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
