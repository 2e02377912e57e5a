#!/usr/bin/env python3
"""Builds the benchmark (Release, from source) and runs one measurement.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <profile_cold|serve_warm|coverage_audit> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds .bench_build/perfbench (the smokescreen_*
library targets and the perfbench program only); later runs rebuild only what
changed. Build output goes to standard error. The program's standard output is
passed through unchanged; its last line is the JSON result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("profile_cold", "serve_warm", "coverage_audit")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the program; returns its path or None."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: {' '.join(step)}: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"run.py: {' '.join(step)} exited {done.returncode}", file=sys.stderr)
            return None
    binary = BUILD / "perfbench"
    return binary if binary.exists() else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 1
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark did not finish in time", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"run.py: the benchmark exited {done.returncode}", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("run.py: the benchmark printed no JSON result", file=sys.stderr)
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("run.py: the result has unexpected keys", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
