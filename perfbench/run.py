#!/usr/bin/env python3
"""Builds and runs the indiroute benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
driver from source (CMake, Release) into .bench_build/perfbench; later
calls only rebuild what changed. The last line of standard output is one
JSON object with "correct", "attempted", "failed" and "metrics", where the
metrics are exactly those BENCHMARK.json declares: the end_to_end list with
--trace 0, the per_layer list with --trace 1. A traced run also writes
.bench_build/results/<workload>_trace.json (Chrome trace) and
<workload>_layers.json.

    python3 perfbench/run.py --negative-checks

feeds each workload a deliberately corrupted copy of one output and fails
unless the benchmark's own checks report every such run as incorrect.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "perfbench")

# (workload, corruption) pairs: each must turn a run incorrect.
NEGATIVE_CHECKS = [
    ("fleet_paper", "improvement"),
    ("fleet_paper", "indirect"),
    ("fleet_wide", "digest"),
    ("relay_bulk", "bytes"),
    ("relay_bulk", "body"),
    ("race_churn", "verdict"),
    ("race_churn", "body"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  check=False)
        except OSError as err:
            log(f"perfbench: cannot run {cmd[0]}: {err}")
            return False
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def run_driver(args):
    """Runs the driver; returns its result object, or None on failure."""
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=175,
                              check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"perfbench: driver did not complete: {err}")
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"perfbench: driver exited with {done.returncode}")
        return None
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def measure(opts):
    declared = declared_metrics(opts.trace == 1)
    result = run_driver([
        "--workload", opts.workload, "--seed", str(opts.seed),
        "--seconds", str(opts.seconds), "--trace", str(opts.trace),
        "--out-dir", RESULTS_DIR])
    if result is None:
        return 1
    metrics = {}
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            log(f"perfbench: metric {metric['name']} missing or in another "
                f"unit: {got}")
            return 1
        metrics[metric["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


def negative_checks():
    missed = []
    for workload, kind in NEGATIVE_CHECKS:
        result = run_driver(["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", "0",
                             "--corrupt", kind])
        caught = result is not None and result["correct"] is False
        log(f"{workload:12s} corrupt={kind:12s} "
            f"{'reported incorrect' if caught else 'NOT CAUGHT'}")
        if not caught:
            missed.append((workload, kind))
    return 1 if missed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-checks", action="store_true")
    opts = parser.parse_args()
    if not opts.negative_checks and not opts.workload:
        parser.error("--workload is required")
    if not build():
        return 1
    if opts.negative_checks:
        return negative_checks()
    return measure(opts)


if __name__ == "__main__":
    sys.exit(main())
