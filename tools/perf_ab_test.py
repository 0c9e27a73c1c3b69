#!/usr/bin/env python3
"""Feeds perf_ab's comparator synthetic arms against BENCHMARK.json's bounds."""
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import perf_ab  # noqa: E402

END_TO_END = json.loads((perf_ab.ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def run(throughput, cpu_s, peak_live_mb):
    values = {"throughput_mb_s": throughput, "cpu_s": cpu_s, "peak_live_mb": peak_live_mb,
              "job_ok_ratio": 1.0, "setup_s": 0.5}
    return {"correct": True, "attempted": 20, "failed": 0,
            "metrics": {name: {"value": value} for name, value in values.items()}}


BASE = [run(12.0, 6.0, 40.0), run(12.4, 5.8, 41.0), run(11.8, 6.1, 40.5)]

# Each case scales the change side's metrics, optionally marks one change run
# incorrect, and lists the words that each expected failure line names.
CASES = [
    ("identical arms pass", {}, None, []),
    ("1.5x faster passes", {"throughput_mb_s": 1.5, "cpu_s": 1 / 1.5}, None, []),
    ("1.5x slower fails", {"throughput_mb_s": 1 / 1.5, "cpu_s": 1.5}, None,
     ["throughput_mb_s", "cpu_s"]),
    ("peak_live_mb +9% passes", {"peak_live_mb": 1.09}, None, []),
    ("peak_live_mb +11% fails", {"peak_live_mb": 1.11}, None, ["peak_live_mb"]),
    ("one incorrect run fails", {}, 1, ["change wcm-interrupt seed 42 pair 1: correct: false"]),
]


def scaled(result, scale):
    metrics = {name: {"value": m["value"] * scale.get(name, 1.0)}
               for name, m in result["metrics"].items()}
    return dict(result, metrics=metrics)


class CompareTest(unittest.TestCase):
    def test_cases(self):
        for name, scale, incorrect_pair, expected in CASES:
            with self.subTest(name):
                change = [scaled(result, scale) for result in BASE]
                if incorrect_pair is not None:
                    change[incorrect_pair] = dict(change[incorrect_pair], correct=False)
                arms = {("wcm-interrupt", 42): {"base": BASE, "change": change}}
                _, failures = perf_ab.compare(arms, END_TO_END)
                self.assertEqual(len(failures), len(expected), failures)
                for word, failure in zip(expected, failures):
                    self.assertIn(word, failure)


if __name__ == "__main__":
    unittest.main()
