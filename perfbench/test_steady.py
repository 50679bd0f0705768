#!/usr/bin/env python3
"""Tests of the steadiness command's statistics. Run from the repository
root: ``python3 perfbench/test_steady.py``."""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import steady  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_spread_is_interquartile_range_over_median(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        # The exclusive method: Q1 = 11.75, Q3 = 17.25 for 10..19.
        self.assertAlmostEqual(q1, 11.75)
        self.assertAlmostEqual(q3, 17.25)
        self.assertAlmostEqual(steady.spread(values), (17.25 - 11.75) / 14.5)

    def test_spread_ignores_order_and_one_outlier(self):
        values = [5.0, 5.1, 4.9, 5.0, 5.2, 4.8, 5.0, 50.0, 5.1, 4.9]
        self.assertLess(steady.spread(values), 0.05)
        self.assertEqual(steady.spread(values), steady.spread(sorted(values)))

    def test_worsening_respects_direction(self):
        before, after = [100.0, 100.0, 100.0], [110.0, 110.0, 110.0]
        self.assertAlmostEqual(steady.worsening(before, after, "lower"), 0.10)
        self.assertAlmostEqual(steady.worsening(before, after, "higher"), -0.10)
        self.assertAlmostEqual(steady.worsening(after, before, "higher"), 10 / 110)

    def test_summary_flags_unequal_failure_shares(self):
        bench = {
            "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "m", "unit": "ms", "better": "lower", "bound": 0.2}],
        }
        run = lambda v, failed: {  # noqa: E731
            "workload": "w", "correct": True, "attempted": 10, "failed": failed,
            "metrics": {"m": {"value": v, "unit": "ms"}},
        }
        steady_runs = [run(v, 0) for v in (10.0, 10.1, 9.9, 10.0)]
        self.assertTrue(steady.summarise(steady_runs, bench))
        self.assertFalse(steady.summarise(steady_runs + [run(10.0, 1)], bench))
        noisy = [run(v, 0) for v in (5.0, 10.0, 15.0, 20.0)]
        self.assertFalse(steady.summarise(noisy, bench))
        shifted = [run(v * 1.3, 0) for v in (10.0, 10.1, 9.9, 10.0)]
        self.assertFalse(steady.summarise(shifted, bench, against=steady_runs))

    def test_summary_flags_a_missing_metric(self):
        bench = {
            "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "m", "unit": "ms", "better": "lower", "bound": 0.2},
                           {"name": "n", "unit": "ms", "better": "lower", "bound": 0.2}],
        }
        run = lambda names: {  # noqa: E731
            "workload": "w", "correct": True, "attempted": 10, "failed": 0,
            "metrics": {k: {"value": 1.0, "unit": "ms"} for k in names},
        }
        self.assertTrue(steady.summarise([run("mn") for _ in range(4)], bench))
        self.assertFalse(steady.summarise([run("mn") for _ in range(3)] + [run("m")], bench))

    def test_summary_gates_setup_s_like_every_metric(self):
        bench = {
            "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
        }
        run = lambda v: {  # noqa: E731
            "workload": "w", "correct": True, "attempted": 10, "failed": 0,
            "metrics": {"setup_s": {"value": v, "unit": "s"}},
        }
        self.assertTrue(steady.summarise([run(v) for v in (1.0, 1.05, 0.95, 1.0)], bench))
        self.assertFalse(steady.summarise([run(v) for v in (0.7, 1.0, 1.3, 1.6)], bench))


if __name__ == "__main__":
    unittest.main()
