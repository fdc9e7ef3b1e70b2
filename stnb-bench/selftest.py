#!/usr/bin/env python3
"""Proves the benchmark's correctness gates on every workload.

    python3 stnb-bench/selftest.py [--seed N]

For each workload, under STNB_SIMD=scalar and under the widest backend the
CPU supports, runs one short solve with --self-test 1. The driver then
checks that every gate passes on the real outputs and fires on a
deliberately perturbed copy of them; any other outcome fails this script.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["spacetime-vortex", "coulomb-p8", "pfasst-pt8"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    failures = 0
    # An empty STNB_SIMD lets the library pick the widest backend.
    for backend in ["scalar", ""]:
        env = dict(os.environ)
        env.pop("STNB_SIMD", None)
        if backend:
            env["STNB_SIMD"] = backend
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(args.seed), "--seconds", "1",
                 "--trace", "0", "--self-test", "1"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env)
            lines = proc.stdout.splitlines()
            meta = json.loads(lines[0])["meta"] if lines else {}
            ok = proc.returncode == 0
            print(f"{workload:18s} simd={meta.get('simd_backend', '?'):7s} "
                  f"{'PASS' if ok else 'FAIL'}")
            if not ok:
                failures += 1
                sys.stderr.write(proc.stderr[-4000:])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
