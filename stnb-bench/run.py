#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 stnb-bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                              [--self-test 1]

Run from the root of a checkout. The driver (stnb_bench.cpp) and the stnb
library under src/ are built in Release mode into .bench_build/ (an
incremental no-op after the first run). The driver's stdout is passed
through; its last line is the result object. A traced run also writes its
host-clock spans to .bench_out/spans-<workload>-seed<seed>.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; build logs go to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "stnb_bench"], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "stnb_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--self-test", default="0", choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in [1, 600]")

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--self-test", args.self_test]
    if args.trace == "1":
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"driver exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("driver printed a malformed result", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
