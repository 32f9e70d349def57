"""Non-contingent baselines and the dominance of policy planning."""

import numpy as np
import pytest

from treeplan import plan_ncg, plan_ncr, path_expected_cost
from treeplan.baselines import most_likely_scenario_path, path_worst_case_cost
from treeplan.dp import solve_policy
from treeplan.verify import random_dp_instance


class TestWorkedCutIn:
    def test_ncr_commits_to_braking(self, cutin_instance):
        """The two fixed paths cost 5.0 (pass) and 1.0 (brake) in expectation;
        the robust baseline picks braking at twice the contingent value."""
        tree, make_scenario, costs = cutin_instance
        scenario = make_scenario(0.5, 0.5)
        plan = plan_ncr(tree, scenario, costs)
        assert plan.path == (0, 1, 3)
        assert plan.expected_cost == pytest.approx(1.0, abs=1e-12)
        pass_cost = path_expected_cost(tree, scenario, costs, (0, 1, 2))
        assert pass_cost == pytest.approx(5.0, abs=1e-12)

    def test_ncg_gambles_on_likely_branch(self, cutin_instance):
        """With the yielding branch at 0.6, the greedy baseline plans against
        it alone and picks passing (cost 0 there), though its full expected
        cost is 0.4 * 10 = 4.0."""
        tree, make_scenario, costs = cutin_instance
        scenario = make_scenario(0.4, 0.6)
        plan = plan_ncg(tree, scenario, costs)
        assert plan.path == (0, 1, 2)
        assert plan.expected_cost == pytest.approx(0.0, abs=1e-12)
        full = path_expected_cost(tree, scenario, costs, plan.path)
        assert full == pytest.approx(4.0, abs=1e-12)

    def test_most_likely_path_selection(self, cutin_instance):
        tree, make_scenario, _ = cutin_instance
        seq = most_likely_scenario_path(make_scenario(0.4, 0.6), (0, 1, 2))
        assert seq == [(), (1,), (1, 0)]

    def test_worst_case_variant(self, cutin_instance):
        tree, make_scenario, costs = cutin_instance
        scenario = make_scenario(0.5, 0.5)
        assert path_worst_case_cost(tree, scenario, costs, (0, 1, 2)) == pytest.approx(10.0)
        assert path_worst_case_cost(tree, scenario, costs, (0, 1, 3)) == pytest.approx(1.0)
        plan = plan_ncr(tree, scenario, costs, worst_case=True)
        assert plan.path == (0, 1, 3)


class TestDominance:
    def test_policy_value_never_exceeds_baselines(self):
        """On random instances the contingent value is at most the robust
        baseline's expectation and at most the greedy baseline's cost under
        the full distribution."""
        rng = np.random.default_rng(123)
        for _ in range(50):
            tree, scenario, costs = random_dp_instance(rng)
            values, _ = solve_policy(tree, scenario, costs)
            v = values.V[(0, ())]
            ncr = plan_ncr(tree, scenario, costs)
            assert v <= ncr.expected_cost + 1e-9
            ncg = plan_ncg(tree, scenario, costs)
            ncg_full = path_expected_cost(tree, scenario, costs, ncg.path)
            assert v <= ncg_full + 1e-9

    def test_ncr_beats_ncg_under_full_distribution(self):
        """The robust baseline optimizes the expectation NCG is judged by,
        so its expected cost can never be worse."""
        rng = np.random.default_rng(321)
        for _ in range(25):
            tree, scenario, costs = random_dp_instance(rng)
            ncr = plan_ncr(tree, scenario, costs)
            ncg = plan_ncg(tree, scenario, costs)
            ncg_full = path_expected_cost(tree, scenario, costs, ncg.path)
            assert ncr.expected_cost <= ncg_full + 1e-9
