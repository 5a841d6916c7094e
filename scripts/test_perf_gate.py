#!/usr/bin/env python3
"""Tests of the paired performance gate's decision rule.

Run from anywhere: python3 scripts/test_perf_gate.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from perf_gate import decide  # noqa: E402

METRICS = [
    {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
]


def run(p50=10.0, work=100.0, correct=True):
    """One perfbench run: exit 0, a log line, then the result line."""
    result = {"correct": correct, "attempted": 50, "failed": 0, "metrics": {
        "p50_ms": {"value": p50, "unit": "ms"},
        "work_per_s": {"value": work, "unit": "1/s"},
    }}
    return 0, "metric p50_ms %s ms\n%s\n" % (p50, json.dumps(result))


def verdicts(pairs):
    passed, rows, problems = decide(METRICS, pairs)
    return passed, {row[0]: row[5] for row in rows}, problems


class DecideTest(unittest.TestCase):
    def test_ratios_inside_the_bound_pass(self):
        pairs = [(run(), run(p50=p50)) for p50 in (11.0, 9.0, 11.5, 10.5, 12.0)]
        passed, rows, problems = verdicts(pairs)
        self.assertTrue(passed)
        self.assertEqual(rows, {"p50_ms": "ok", "work_per_s": "ok"})
        self.assertEqual(problems, [])

    def test_past_the_bound_in_four_of_five_pairs_fails(self):
        pairs = [(run(), run(p50=p50)) for p50 in (13.0, 13.0, 9.0, 13.0, 13.0)]
        passed, rows, _ = verdicts(pairs)
        self.assertFalse(passed)
        self.assertEqual(rows, {"p50_ms": "REGRESSION", "work_per_s": "ok"})

    def test_past_the_bound_in_only_three_of_five_pairs_passes(self):
        pairs = [(run(), run(p50=p50)) for p50 in (13.0, 13.0, 9.0, 13.0, 9.0)]
        passed, rows, _ = verdicts(pairs)
        self.assertTrue(passed)
        self.assertEqual(rows["p50_ms"], "ok")

    def test_a_higher_is_better_metric_is_inverted(self):
        # Throughput falling by 30% is a regression; rising by 30% is not.
        passed, rows, _ = verdicts([(run(), run(work=70.0))] * 5)
        self.assertFalse(passed)
        self.assertEqual(rows, {"p50_ms": "ok", "work_per_s": "REGRESSION"})
        passed, rows, _ = verdicts([(run(), run(work=130.0))] * 5)
        self.assertTrue(passed)
        self.assertEqual(rows["work_per_s"], "ok")

    def test_an_incorrect_run_fails(self):
        pairs = [(run(), run())] * 4 + [(run(), run(correct=False))]
        passed, _, problems = verdicts(pairs)
        self.assertFalse(passed)
        self.assertEqual(problems, ['pair 5: head run result says "correct": false'])

    def test_a_missing_result_line_fails(self):
        for bad in [(0, "metric p50_ms 10 ms\n"), (0, ""), (1, run()[1])]:
            passed, _, problems = verdicts([(bad, run())] + [(run(), run())] * 4)
            self.assertFalse(passed, bad)
            self.assertEqual(len(problems), 1, problems)
            self.assertTrue(problems[0].startswith("pair 1: base run"), problems)


if __name__ == "__main__":
    unittest.main()
