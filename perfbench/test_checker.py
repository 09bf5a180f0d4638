"""Tests of the checker and of the checks built on it: each check can fail.

Run from the repository root:

    python3 perfbench/test_checker.py
"""

from __future__ import annotations

import copy
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checker import Network  # noqa: E402


def _report(op) -> dict:
    return json.loads(run.analyze(run.import_program(), op))


class ModelTest(unittest.TestCase):
    def setUp(self):
        self.game = workloads.two_link(3).game()  # edges 0 (cost 1) and 1 (cost 3), capacity 3

    def test_costs_potential_and_optimum(self):
        game = self.game
        low, high = (0,), (1,)
        self.assertEqual(game.value(sum(game.costs((low, low, low)))), 1)
        self.assertEqual(game.value(game.potential((low, low, high))), Fraction(1) + Fraction(1, 2) + 3)
        truth = game.truth()
        self.assertEqual(game.value(truth.opt_sc), 1)
        self.assertEqual(len(truth.orbits), 4)
        self.assertEqual(sum(o.multiplicity for o in truth.orbits), 8)

    def test_deviation_test_finds_an_improving_move(self):
        game = self.game
        self.assertTrue(game.is_nash(((1,), (1,), (1,))))  # alone on edge 0 also costs 1
        self.assertFalse(game.is_nash(((0,), (1,), (1,))))
        agent, path, _ = game.improving_move(((0,), (1,), (1,)))
        self.assertEqual((agent, path), (1, (0,)))

    def test_graph_classes(self):
        def cls(nodes, arcs, s, t):
            return Network(nodes, dict(enumerate(arcs)), s, t).graph_class()

        self.assertEqual(cls([0, 1], [(0, 1), (0, 1)], 0, 1), "parallel-link")
        self.assertEqual(cls([0, 1, 2], [(0, 1), (0, 1), (1, 2)], 0, 2), "series-parallel")
        bridge = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
        self.assertEqual(cls([0, 1, 2, 3], bridge, 0, 3), "dag")
        self.assertEqual(cls([0, 1, 2], [(0, 1), (1, 2), (2, 1)], 0, 2), "general")


class ChecksCanFailTest(unittest.TestCase):
    def setUp(self):
        self.op = workloads.two_link(3)
        self.report = _report(self.op)

    def test_true_report_passes(self):
        checks.check_analyze(self.op.game(), self.report, self.op.family)
        op = workloads.asym_dag(0)[0]
        checks.check_analyze(op.game(), _report(op), op.family)

    def test_planted_wrong_optimum_is_rejected(self):
        report = copy.deepcopy(self.report)
        report["optima"]["sum_cost"] = {"value": {"exact": "3/1"}, "profile": [[1], [1], [1]]}
        with self.assertRaises(checks.CheckFailed):
            checks.check_analyze(self.op.game(), report, self.op.family)

    def test_planted_non_equilibrium_is_rejected(self):
        report = copy.deepcopy(self.report)
        entry = report["equilibria"]["profiles"][0]
        entry["paths"] = [[0], [1], [1]]
        with self.assertRaises(checks.CheckFailed):
            checks.check_analyze(self.op.game(), report, self.op.family)

    def test_missing_equilibrium_is_rejected(self):
        report = copy.deepcopy(self.report)
        report["equilibria"]["profiles"].pop()
        with self.assertRaises(checks.CheckFailed):
            checks.check_analyze(self.op.game(), report, self.op.family)

    def test_wrong_closed_form_is_rejected(self):
        with self.assertRaises(checks.CheckFailed):
            checks.check_analyze(self.op.game(), self.report, ("fig3", Fraction(1, 1000)))

    def _moving_report(self):
        """The first asym-dag op (seed 0) whose dynamics block makes a move."""
        for op in workloads.asym_dag(0):
            report = _report(op)
            if report["dynamics"]["step_count"] > 0:
                return op, report
        self.fail("no asym-dag op of seed 0 makes a move")

    def test_trace_ending_off_equilibrium_is_rejected(self):
        op, report = self._moving_report()
        checks.check_analyze(op.game(), report, op.family)
        # stop the trace at its start, with that profile's true figures
        trace = report["dynamics"]
        game = op.game()
        costs = game.costs(tuple(tuple(p) for p in trace["start"]))
        trace["steps"] = []
        trace["step_count"] = 0
        trace["terminal"] = {
            "paths": trace["start"],
            "sum_cost": str(game.value(sum(costs))),
            "max_cost": str(game.value(max(costs))),
            "potential": trace["initial_potential"],
        }
        with self.assertRaises(checks.CheckFailed):
            checks.check_analyze(op.game(), report, op.family)

    def test_wrong_potential_step_is_rejected(self):
        op, report = self._moving_report()
        step = report["dynamics"]["steps"][0]
        step["cost_delta"] = str(Fraction(step["cost_delta"]) - 1)
        with self.assertRaises(checks.CheckFailed):
            checks.check_analyze(op.game(), report, op.family)


if __name__ == "__main__":
    unittest.main()
