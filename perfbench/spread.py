#!/usr/bin/env python3
"""Runs workloads on several seeds and reports each end-to-end metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 101-110] [--seconds S]

For every metric it prints the median over the runs and the spread
(Q3 - Q1) / median, quartiles as statistics.quantiles(values, n=4) gives
them, next to a third of the metric's bound from BENCHMARK.json. A spread
above that third (setup_s excepted, which is only compared median to median)
is flagged, and any failed run makes the exit code 1.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--seeds", default="101-110", help="inclusive range, e.g. 101-110")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})")
                ok = False
                continue
            row = {name: m["value"] for name, m in result["metrics"].items()}
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
            for name, value in row.items():
                values[name].append(value)
        for metric in spec["end_to_end"]:
            v = values[metric["name"]]
            if len(v) < 2:
                continue
            q1, median, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / median if median else 0.0
            limit = metric["bound"] / 3
            flag = "" if spread <= limit or metric["name"] == "setup_s" else "  <-- above"
            print(f"  {workload:14s} {metric['name']:16s} median={median:.6g} "
                  f"spread={spread:.4f} limit={limit:.4f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
