#!/usr/bin/env python3
"""Runs perfbench on a base revision and on the working tree in alternating pairs.

Usage, from anywhere in a checkout:

    python3 tools/perf_ab.py [--base REV] [--pairs N] [--seconds S] [--seeds 42,7]

The base side is `git archive REV`, unpacked into .bench_build/ab/<full sha>/
and reused by later calls; it builds and runs with its own perfbench/run.py.
The change side is this working tree's perfbench/run.py. Both run untraced.
Workloads, end-to-end metrics and their bounds come from this tree's
BENCHMARK.json. For each workload and seed, pair i runs the base first when
i is even and the change first when i is odd.

For each workload, seed and end-to-end metric it prints both medians, the
change/base ratio, each side's spread (Q3 - Q1) / median (quartiles as
statistics.quantiles(values, n=4) gives them) and how many pairs the change
won. The exit code is 1 when any run fails (non-zero exit, no JSON last
line, `correct: false` or `failed > 0`), or when a change median is worse
than the base median by more than the metric's bound; a speed-up never fails.
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def base_tree(rev):
    """Returns the unpacked tree of |rev|, unpacking it on first use."""
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"perf_ab: --base {rev} names no commit")
    sha = proc.stdout.strip()
    tree = ROOT / ".bench_build" / "ab" / sha
    if not tree.exists():
        # Unpack beside the target and rename, so a cut-short unpack is never reused.
        partial = tree.with_name(sha + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir(parents=True)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(partial)], input=archive, check=True)
        partial.rename(tree)
    return tree


def run_once(tree, workload, seed, seconds):
    """Runs one untraced perfbench run in |tree| and returns its parsed JSON.

    A run that exits non-zero or whose last line is no JSON object comes back
    as an incorrect result whose "error" says so."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if proc.returncode == 0 and isinstance(result, dict):
        return result
    sys.stderr.write(proc.stderr)
    error = f"exit {proc.returncode}" if isinstance(result, dict) else "no JSON last line"
    return {"correct": False, "error": error}


def run_problem(result):
    """Says why |result| is not a usable run, or returns None when it is."""
    if "error" in result:
        return result["error"]
    if not result.get("correct"):
        return "correct: false"
    if result.get("failed", 0) > 0:
        return f"failed: {result['failed']}"
    return None


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(metric, base, change):
    """The fraction by which |change| is worse than |base| (negative if better).

    perfbench never reports an end-to-end metric of 0, so |base| divides."""
    delta = base - change if metric["better"] == "higher" else change - base
    return delta / base


def compare(arms, end_to_end):
    """Compares the base and change runs of every workload and seed.

    |arms| maps (workload, seed) to {"base": [...], "change": [...]}, the
    parsed result of pair i at index i of each list; |end_to_end| is
    BENCHMARK.json's list. Failed runs are named and left out of the medians.
    Returns (report lines, failure lines); the change passes when the second
    list is empty."""
    report, failures = [], []
    for (workload, seed), runs in arms.items():
        good = {side: [] for side in SIDES}
        for side in SIDES:
            for pair, result in enumerate(runs[side]):
                problem = run_problem(result)
                if problem:
                    failures.append(f"{side} {workload} seed {seed} pair {pair}: {problem}")
                else:
                    good[side].append((pair, result["metrics"]))
        report.append(f"{workload} seed {seed}: {len(good['base'])} base and "
                      f"{len(good['change'])} change runs")
        if not good["base"] or not good["change"]:
            continue
        report.append(f"  {'metric':16s} {'base':>10s} {'change':>10s} {'ratio':>7s} "
                      f"{'spread b':>9s} {'spread c':>9s}  won")
        for metric in end_to_end:
            name = metric["name"]
            by_pair = {side: {pair: m[name]["value"] for pair, m in good[side]} for side in SIDES}
            base, change = (statistics.median(by_pair[side].values()) for side in SIDES)
            spread_base, spread_change = (spread(list(by_pair[side].values())) for side in SIDES)
            paired = by_pair["base"].keys() & by_pair["change"].keys()
            won = sum(worsening(metric, by_pair["base"][p], by_pair["change"][p]) < 0
                      for p in paired)
            report.append(f"  {name:16s} {base:10.4g} {change:10.4g} {change / base:7.3f} "
                          f"{spread_base:9.3f} {spread_change:9.3f}  {won}/{len(paired)}")
            worse = worsening(metric, base, change)
            if worse > metric["bound"]:
                failures.append(f"{workload} seed {seed} {name}: change median {change:.4g} "
                                f"is {worse:.1%} worse than base {base:.4g} "
                                f"(bound {metric['bound']:.0%})")
    return report, failures


def seed_list(text):
    return [int(seed) for seed in text.split(",")]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload and seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of each run")
    parser.add_argument("--seeds", type=seed_list, default=[42, 7], help="e.g. 42,7")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    names = [metric["name"] for metric in spec["end_to_end"]]
    trees = {"base": base_tree(args.base), "change": ROOT}
    arms = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in args.seeds:
            runs = arms[(workload, seed)] = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    result = run_once(trees[side], workload, seed, args.seconds)
                    runs[side].append(result)
                    shown = run_problem(result) or " ".join(
                        f"{name}={result['metrics'][name]['value']:.4g}" for name in names)
                    print(f"{workload} seed {seed} pair {pair} {side}: {shown}", flush=True)
    report, failures = compare(arms, spec["end_to_end"])
    print("\n".join(report))
    for failure in failures:
        print(f"perf_ab: FAIL {failure}")
    print(f"perf_ab: {'FAIL' if failures else 'ok'} ({trees['base'].name[:12]} -> working tree)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
