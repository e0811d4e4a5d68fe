#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload sim-ba20k --seed 1 --seconds 30 --trace 0

The Rust package beside this file is built in release mode (offline,
into $CARGO_TARGET_DIR, default `.bench_build`), then run with the same
arguments. Its standard error passes through; the last line of standard
output is its one-line JSON result. The exit code is non-zero, with no
result printed, when the build or the run fails or a check does not hold.
Full records and spans land in `.bench_out/`.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-ba20k", "sim-rmat14", "serve-mixed")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# One run must end within this; a first run also builds, which is not
# counted against it.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                       "release", "tcim-perfbench")
    try:
        run = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--out", os.path.join(ROOT, ".bench_out")],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"perfbench: run failed with exit code {run.returncode}", file=sys.stderr)
        return run.returncode or 5
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS or not result["correct"]:
        sys.stderr.write(run.stdout)
        print("perfbench: the run did not end with a correct result line", file=sys.stderr)
        return 6
    print(run.stdout, end="" if run.stdout.endswith("\n") else "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
