#!/usr/bin/env python3
"""Unit tests for run.py's statistics and compare verdicts.

  python3 bench/e2e/test_run.py
"""

import importlib.util
import json
import tempfile
import unittest
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("run", Path(__file__).with_name("run.py"))
run = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run)


def results(values_by_metric, workload="chaos_cascade"):
    """A results document with one untraced run per value position."""
    count = max(len(v) for v in values_by_metric.values())
    runs = []
    for i in range(count):
        metrics = {name: {"value": v[i], "unit": "s", "n": 1}
                   for name, v in values_by_metric.items() if i < len(v)}
        runs.append({"workload": workload, "traced": False, "metrics": metrics})
    return {"machine": {}, "runs": runs}


class Statistics(unittest.TestCase):
    def test_summarize_uses_statistics_quartiles(self):
        med, q1, q3 = run.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(med, 3.0)
        self.assertEqual((q1, q3), (1.5, 4.5))

    def test_single_value_has_no_spread(self):
        self.assertEqual(run.summarize([7.0]), (7.0, 7.0, 7.0))
        self.assertEqual(run.spread([7.0]), 0.0)

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(run.spread([1.0, 2.0, 3.0, 4.0, 5.0]), 3.0 / 3.0)


class Verdicts(unittest.TestCase):
    def test_ties_are_within_bound(self):
        same = [1.0, 1.0, 1.0, 1.0]
        self.assertEqual(run.verdict(same, same, 0.10), "within bound")

    def test_small_rise_is_within_bound_large_rise_is_worse(self):
        a = [1.00, 1.01, 0.99, 1.00]
        self.assertEqual(run.verdict(a, [1.05, 1.06, 1.04, 1.05], 0.10), "within bound")
        self.assertEqual(run.verdict(a, [1.20, 1.21, 1.19, 1.20], 0.10), "worse")

    def test_spread_wider_than_bound_is_unresolved(self):
        a = [1.0, 1.0, 1.0, 1.0]
        noisy = [0.7, 1.3, 0.8, 1.4]
        self.assertEqual(run.verdict(a, noisy, 0.10), "unresolved")
        self.assertEqual(run.verdict(noisy, a, 0.10), "unresolved")

    def test_every_run_better_resolves_a_wide_spread(self):
        noisy = [2.0, 3.0, 2.2, 3.5]
        self.assertEqual(run.verdict(noisy, [1.0, 1.5, 1.2, 1.1], 0.10), "within bound")

    def test_any_rise_in_fail_frac_is_worse(self):
        self.assertEqual(run.verdict([0.0, 0.0], [0.0, 0.001], 0.0), "worse")
        self.assertEqual(run.verdict([0.0, 0.0], [0.0, 0.0], 0.0), "within bound")

    def test_missing_side_is_missing(self):
        self.assertEqual(run.verdict([1.0], [], 0.10), "missing")
        self.assertEqual(run.verdict([], [1.0], 0.10), "missing")


class Compare(unittest.TestCase):
    def write(self, tmp, name, doc):
        path = Path(tmp) / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_identical_sets_pass(self):
        doc = results({"run_s": [1.0, 1.01, 0.99], "fail_frac": [0.0, 0.0, 0.0]})
        with tempfile.TemporaryDirectory() as tmp:
            a, b = self.write(tmp, "a.json", doc), self.write(tmp, "b.json", doc)
            self.assertEqual(run.compare(a, b), 0)

    def test_missing_metric_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            a = self.write(tmp, "a.json", results({"run_s": [1.0], "setup_s": [0.1]}))
            b = self.write(tmp, "b.json", results({"run_s": [1.0]}))
            self.assertEqual(run.compare(a, b), 1)

    def test_fail_frac_rise_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            a = self.write(tmp, "a.json", results({"fail_frac": [0.0, 0.0]}))
            b = self.write(tmp, "b.json", results({"fail_frac": [0.0, 0.01]}))
            self.assertEqual(run.compare(a, b), 1)

    def test_traced_runs_are_not_compared(self):
        doc = results({"run_s": [1.0]})
        traced = json.loads(json.dumps(doc))
        traced["runs"].append({"workload": "chaos_cascade", "traced": True,
                               "metrics": {"run_s": {"value": 9.0, "unit": "s", "n": 1}}})
        with tempfile.TemporaryDirectory() as tmp:
            a, b = self.write(tmp, "a.json", doc), self.write(tmp, "b.json", traced)
            self.assertEqual(run.compare(a, b), 0)


if __name__ == "__main__":
    unittest.main()
