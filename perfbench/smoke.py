#!/usr/bin/env python3
"""Smoke test: every workload once at reduced size, traced and untraced.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

Each run must succeed and print exactly the metrics BENCHMARK.json declares
for its mode (end_to_end untraced, per_layer traced), by name and unit.
Exits 1 on the first mismatch.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE = "0.25"  # Every workload keeps its regime at a quarter of its input.


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload["name"], "--seed", "1", "--seconds", "1",
                 "--trace", trace, "--scale", SCALE],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            label = f"{workload['name']} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                sys.exit(f"smoke: {label} exited {proc.returncode}")
            result = json.loads(lines[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                sys.exit(f"smoke: {label} reported an incorrect run: {lines[-1]}")
            if got != want:
                extra = sorted(set(got.items()) - set(want.items()))
                missing = sorted(set(want.items()) - set(got.items()))
                sys.exit(f"smoke: {label} metrics differ from BENCHMARK.json: "
                         f"undeclared {extra}, missing {missing}")
            print(f"smoke: {label}: ok ({len(got)} metrics)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
