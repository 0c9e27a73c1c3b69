#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--scale F]

The first call configures and builds ../src plus the driver under
.bench_build/ (about a minute on 4 cores); later calls only re-check the
build. Temporary and spill files stay under .bench_build/ too; each run
spills into a fresh directory that is removed when it ends. The last line
of standard output is the benchmark's JSON result; the exit code is the
driver's, or 1 when the build fails or the run overruns its time limit.
"""
import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_build"
BUILD_DIR = WORK_DIR / "perfbench"
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def build(env):
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "--parallel", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=BUILD_TIMEOUT_S, env=env)
        except (OSError, subprocess.TimeoutExpired) as err:
            sys.exit(f"perfbench: build step failed: {err}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    tmp = WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    build(env)
    with tempfile.TemporaryDirectory(prefix="spill-", dir=tmp) as spill:
        cmd = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--spill-dir", spill, "--scale", str(args.scale)]
        try:
            return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=env).returncode
        except subprocess.TimeoutExpired:
            sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S}s, killed\n")
            return 1


if __name__ == "__main__":
    sys.exit(main())
