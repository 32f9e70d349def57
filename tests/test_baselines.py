"""Non-contingent baselines and the dominance of policy planning."""

import numpy as np
import pytest

from treeplan import plan_ncg, plan_ncr, path_expected_cost
from treeplan.baselines import _ego_paths, most_likely_scenario_path, path_policy, path_worst_case_cost
from treeplan.dp import PolicyTable, policy_expected_cost, solve_policy
from treeplan.verify import random_dp_instance, random_ec_instance


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


def _ref_expected_from(scenario, costs, ego_path, stage, scen_path):
    """The fixed-path recursion path_expected_cost used before it became a
    policy_expected_cost call, kept as the bit-for-bit reference."""
    c = costs.get(ego_path[stage], scen_path)
    if stage == len(ego_path) - 1:
        return c
    total = c
    for child in scenario.tree_for_ego_node(ego_path[stage + 1]).children(scen_path):
        total += child.branch_probability * _ref_expected_from(scenario, costs, ego_path, stage + 1, child.path)
    return total


def _instances():
    """Criterion 5's random instances, then random_ec_instance draws."""
    rng = np.random.default_rng(55)
    for _ in range(200):
        yield random_dp_instance(rng)
    rng = np.random.default_rng(1)
    for _ in range(40):
        yield random_ec_instance(rng)


class _RecordingPi(dict):
    def __init__(self, pi):
        super().__init__(pi)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestPathPolicy:
    def test_keys_are_the_pairs_policy_expected_cost_visits(self):
        for tree, scenario, costs in _instances():
            for ego_path in _ego_paths(tree):
                policy = path_policy(scenario, ego_path)
                assert set(policy.pi.values()) <= set(ego_path[1:])
                pi = _RecordingPi(policy.pi)
                policy_expected_cost(tree, scenario, costs, PolicyTable(pi=pi))
                assert pi.read == set(policy.pi)

    def test_path_expected_cost_matches_the_fixed_path_recursion(self):
        for tree, scenario, costs in _instances():
            for ego_path in _ego_paths(tree):
                got = path_expected_cost(tree, scenario, costs, ego_path)
                assert got.hex() == _ref_expected_from(scenario, costs, ego_path, 0, ()).hex()

    def test_worked_cut_in_path_ignores_the_branch(self, cutin_instance):
        tree, make_scenario, _ = cutin_instance
        assert path_policy(make_scenario(0.5, 0.5), (0, 1, 3)).pi == {(0, ()): 1, (1, (0,)): 3, (1, (1,)): 3}
