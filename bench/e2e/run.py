#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs one of its workloads.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Each run configures (first time) and
incrementally builds bench/e2e into .bench_build, runs bbv_e2e, echoes its
lines and prints, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (and
writes the spans to .bench_build/trace-<workload>.json). Exits non-zero
without a result when the build or the run fails to produce one.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("serve_fleet", "serve_monitored", "train_income", "validate_batch")
# A run (set-up, warm-up, measured loop and output checks) that takes longer
# than this is stopped and reported as failed.
RUN_TIMEOUT_SECONDS = 170

METRIC = re.compile(r"^METRIC (\S+) (\S+) (\S+) (\S+) n=(\d+)$")
OPS = re.compile(r"^OPS (\S+) attempted=(\d+) failed=(\d+)$")


def build():
    """Configures and builds bbv_e2e; returns its path or None."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "bbv_e2e", "-j4"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            print("build step failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(BUILD, "bbv_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    command = [binary, "--workload=" + args.workload,
               "--seed=" + str(args.seed), "--seconds=" + str(args.seconds)]
    if args.trace:
        command.append("--trace=" + os.path.join(
            BUILD, "trace-" + args.workload + ".json"))
    env = dict(os.environ)
    # Measured runs keep the library's telemetry at its default (on).
    env.pop("BBV_TELEMETRY", None)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, env=env, check=False,
                              timeout=RUN_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        print("bbv_e2e timed out", file=sys.stderr)
        return 1

    metrics = {}
    attempted = None
    failed = None
    for line in done.stdout.splitlines():
        print(line)
        match = METRIC.match(line)
        if match and match.group(1) == args.workload:
            metrics[match.group(2)] = {"value": float(match.group(3)),
                                       "unit": match.group(4)}
        match = OPS.match(line)
        if match and match.group(1) == args.workload:
            attempted = int(match.group(2))
            failed = int(match.group(3))
    if attempted is None or not metrics:
        print("bbv_e2e exited %d without a result" % done.returncode,
              file=sys.stderr)
        return 1
    correct = done.returncode == 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
