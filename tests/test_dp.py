"""Tree-policy dynamic programming against exhaustive enumeration."""

import numpy as np
import pytest

from treeplan import (
    AgentState,
    CostTensor,
    CostWeights,
    ECPredictionEnsemble,
    KinematicPredictor,
    SamplerConfig,
    Scene,
    StageSchedule,
    brute_force_value,
    build_cost_tensor,
    build_cost_tensor_ec,
    grow_tree,
    plan_ncg,
    plan_ncr,
    policy_expected_cost,
    predict_ensemble,
)
from treeplan.dp import count_policies, solve_policy, solve_policy_ec
from treeplan.errors import StructureError
from treeplan.verify import random_costs, random_dp_instance, random_scenario_tree, random_tree


class TestWorkedExamples:
    def test_one_stage_expected_cost(self, n1_instance):
        """Cost matrix [[1,5],[4,2]] under probabilities (0.6, 0.4):
        min(0.6*1 + 0.4*5, 0.6*4 + 0.4*2) = min(2.6, 3.2) = 2.6."""
        tree, scenario, costs = n1_instance
        values, policy = solve_policy(tree, scenario, costs)
        assert values.V[(0, ())] == pytest.approx(2.6, abs=1e-12)
        assert policy.pi[(0, ())] == 1

    def test_one_stage_matches_enumeration(self, n1_instance):
        tree, scenario, costs = n1_instance
        values, _ = solve_policy(tree, scenario, costs)
        bf, _ = brute_force_value(tree, scenario, costs)
        assert bf == pytest.approx(2.6, abs=1e-12)
        assert values.V[(0, ())] == pytest.approx(bf, abs=1e-15)

    def test_contingency_value(self, cutin_instance):
        """Nudge, observe which branch happened, then brake (A) or pass (B):
        V = 0.5*1 + 0.5*0 = 0.5."""
        tree, make_scenario, costs = cutin_instance
        scenario = make_scenario(0.5, 0.5)
        values, policy = solve_policy(tree, scenario, costs)
        assert values.V[(0, ())] == pytest.approx(0.5, abs=1e-12)
        assert policy.pi[(1, (0,))] == 3  # brake after the blocking branch
        assert policy.pi[(1, (1,))] == 2  # pass after the yielding branch

    def test_contingency_policy_execution(self, cutin_instance):
        """Observed branch A: the policy runs the nudge segment, then the
        brake segment."""
        tree, make_scenario, costs = cutin_instance
        scenario = make_scenario(0.5, 0.5)
        _, policy = solve_policy(tree, scenario, costs)
        first = policy.pi[(0, ())]
        second = policy.pi[(first, (0,))]
        assert (first, second) == (1, 3)
        assert tree.node(second).segment.start == tree.node(first).segment.end


class TestOracle:
    def test_random_instances_match_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            tree, scenario, costs = random_dp_instance(rng)
            values, policy = solve_policy(tree, scenario, costs)
            bf, _ = brute_force_value(tree, scenario, costs)
            assert abs(values.V[(0, ())] - bf) < 1e-9
            replay = policy_expected_cost(tree, scenario, costs, policy)
            assert abs(replay - bf) < 1e-9

    def test_bellman_residual_zero(self):
        """V at every interior pair equals cost plus expected child V."""
        rng = np.random.default_rng(7)
        tree, scenario, costs = random_dp_instance(rng)
        values, policy = solve_policy(tree, scenario, costs)
        for (ego_id, scen_path), v in values.V.items():
            node = tree.node(ego_id)
            if node.stage == tree.max_stage:
                assert v == pytest.approx(costs.get(ego_id, scen_path))
                continue
            chosen = policy.pi[(ego_id, scen_path)]
            q = costs.get(ego_id, scen_path)
            for child in scenario.children(scen_path):
                q += child.branch_probability * values.V[(chosen, child.path)]
            assert v == pytest.approx(q, abs=1e-12)

    def test_positive_scaling_invariance(self):
        """Scaling all costs by a positive factor scales V and keeps the policy."""
        rng = np.random.default_rng(9)
        tree, scenario, costs = random_dp_instance(rng)
        v1, p1 = solve_policy(tree, scenario, costs)
        v2, p2 = solve_policy(tree, scenario, CostTensor({k: 3.5 * v for k, v in costs.values.items()}))
        assert p1.pi == p2.pi
        for key, v in v1.V.items():
            assert v2.V[key] == pytest.approx(3.5 * v, rel=1e-12)

    def test_tie_break_lowest_child_id(self, n1_instance):
        tree, scenario, _ = n1_instance
        tied = CostTensor({(0, ()): 0.0, (1, (0,)): 1.0, (1, (1,)): 1.0,
                           (2, (0,)): 1.0, (2, (1,)): 1.0})
        _, policy = solve_policy(tree, scenario, tied)
        assert policy.pi[(0, ())] == 1

    def test_count_policies(self, cutin_instance):
        tree, make_scenario, _ = cutin_instance
        # one pair at the root (1 choice), two stage-1 pairs with 2 choices
        assert count_policies(tree, make_scenario(0.5, 0.5)) == 4

    def test_structure_mismatch_raises(self):
        rng = np.random.default_rng(1)
        tree = random_tree(rng, 3, 2)
        short = random_scenario_tree(rng, 2, 2)
        pairs = [(n.id, s.path) for n in tree.nodes for s in short.stage_nodes(n.stage)]
        costs = random_costs(rng, pairs)
        with pytest.raises(StructureError):
            solve_policy(tree, short, costs)


class TestOneScenarioInterface:
    """An ensemble whose modes all carry one ScenarioTree plans exactly like
    that tree passed directly."""

    def test_ensemble_of_one_tree_matches_the_tree(self, two_lane_map):
        schedule = StageSchedule.uniform(2)
        tree = grow_tree(AgentState(0.0, 0.0, 10.0, 0.0), two_lane_map, schedule, SamplerConfig(max_children=3), 5)
        scene = Scene(
            agents={"a0": AgentState(18.0, 3.5, 8.0, 0.0), "a1": AgentState(30.0, 0.0, 6.0, 0.0)},
            lane_map=two_lane_map,
        )
        predictor = KinematicPredictor(lane_map=two_lane_map, branching_factor=4)
        per_mode = predict_ensemble(predictor, scene, tree, schedule, 4, 5)
        modes = per_mode.modes
        shared = per_mode.trees[modes[-1].mode_id]
        ensemble = ECPredictionEnsemble(modes=modes, trees={m.mode_id: shared for m in modes})
        assert ensemble.max_stage == shared.max_stage
        weights = CostWeights(goal=(200.0, 0.0))

        costs = build_cost_tensor(tree, shared, two_lane_map, weights)
        assert build_cost_tensor_ec(tree, ensemble, two_lane_map, weights).values == costs.values
        values, policy = solve_policy(tree, shared, costs)
        ec_values, ec_policy = solve_policy_ec(tree, ensemble, costs)
        assert (ec_values.V, ec_values.Q, ec_policy.pi) == (values.V, values.Q, policy.pi)
        for plan in (plan_ncr, plan_ncg, lambda *a: plan_ncr(*a, worst_case=True)):
            assert plan(tree, ensemble, costs) == plan(tree, shared, costs)
        assert policy_expected_cost(tree, ensemble, costs, policy) == policy_expected_cost(tree, shared, costs, policy)
        assert count_policies(tree, ensemble) == count_policies(tree, shared)

    def test_ec_names_are_the_same_functions(self):
        assert solve_policy_ec is solve_policy
        assert build_cost_tensor_ec is build_cost_tensor
