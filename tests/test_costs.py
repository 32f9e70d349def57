"""Running cost terms and their stage integrals."""

import math

import numpy as np
import pytest

from treeplan import (
    AgentState,
    CostWeights,
    Footprint,
    Lane,
    LaneGraph,
    StageSchedule,
    Trajectory,
    running_cost,
)
from treeplan.costs import (
    DEFAULT_FOOTPRINT,
    _lane_errors,
    _lane_errors_batch,
    build_cost_tensor,
    build_cost_tensor_ec,
    ego_per_sample_cost,
    stage_cost,
)
from treeplan.errors import ScheduleMismatch
from treeplan.prediction import (
    KinematicPredictor,
    Scene,
    ScenarioNode,
    ScenarioTree,
    predict_ensemble,
)
from treeplan.sampler import SamplerConfig, grow_tree
from treeplan.world import wrap_angle


def _const_traj(state, n, dt=0.1, t0=0.0):
    return Trajectory(t0, dt, (state,) * n)


class TestRunningCost:
    def test_collision_term_at_one_scale(self):
        """Clearance equal to collision_scale gives exactly e^-1."""
        w = CostWeights(w_collision=1.0, w_lane=0.0, w_goal=0.0, w_comfort=0.0, collision_scale=2.0)
        ego = AgentState(0, 0, 5, 0)
        # 4.6 m boxes nose to tail: clearance = gap - length = 6.6 - 4.6 = 2
        env = {"a": (AgentState(6.6, 0, 5, 0), DEFAULT_FOOTPRINT)}
        c = running_cost(ego, DEFAULT_FOOTPRINT, env, None, w)
        assert c == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_collision_term_is_one_at_contact(self):
        w = CostWeights(w_collision=1.0, w_lane=0.0, w_goal=0.0, w_comfort=0.0)
        ego = AgentState(0, 0, 5, 0)
        env = {"a": (AgentState(1.0, 0, 5, 0), DEFAULT_FOOTPRINT)}
        c = running_cost(ego, DEFAULT_FOOTPRINT, env, None, w)
        assert c == pytest.approx(1.0)

    def test_comfort_term(self):
        w = CostWeights(w_collision=0.0, w_lane=0.0, w_goal=0.0, w_comfort=0.5)
        c = running_cost(AgentState(0, 0, 5, 0), DEFAULT_FOOTPRINT, {}, None, w,
                         accel=2.0, yaw_rate=0.3)
        assert c == pytest.approx(0.5 * (4.0 + 0.09))


class TestStageCost:
    def _weights(self, **kw):
        base = dict(w_collision=0.0, w_lane=0.0, w_goal=0.0, w_comfort=0.0)
        base.update(kw)
        return CostWeights(**base)

    def test_trapezoid_exact_for_linear_integrand(self):
        """Goal distance decreasing linearly in time integrates exactly.

        Ego moves from x=-2 to x=0 at 1 m/s toward goal (0,0): the goal
        term is c(t) = 2 - t over [0,2], whose integral is 2."""
        w = CostWeights(w_collision=0.0, w_lane=0.0, w_goal=1.0, w_comfort=0.0, goal=(0.0, 0.0))
        n = 21
        samples = tuple(AgentState(-2.0 + 0.1 * k, 0.0, 1.0, 0.0) for k in range(n))
        seg = Trajectory(0.0, 0.1, samples)
        node = ScenarioNode((), 1, {}, 1.0)
        c = stage_cost(seg, node, None, w, goal_norm=1.0)
        assert c.value == pytest.approx(2.0, abs=1e-12)

    def test_zero_duration_segment_costs_nothing(self):
        w = self._weights(w_goal=1.0)
        seg = Trajectory(0.0, 0.1, (AgentState(0, 0, 5, 0),))
        node = ScenarioNode((), 0, {}, 1.0)
        assert stage_cost(seg, node, None, CostWeights(goal=(10.0, 0.0))).value == 0.0

    def test_mismatched_support_raises(self):
        seg = _const_traj(AgentState(0, 0, 5, 0), 21)
        bad = ScenarioNode((0,), 1, {"a": _const_traj(AgentState(9, 0, 5, 0), 15)}, 1.0)
        with pytest.raises(ScheduleMismatch):
            stage_cost(seg, bad, None, CostWeights())

    def test_collision_term_integrated(self):
        """Constant clearance of one scale over 2 s integrates to 2 e^-1."""
        w = self._weights(w_collision=1.0, collision_scale=2.0)
        seg = _const_traj(AgentState(0, 0, 5, 0), 21)
        node = ScenarioNode((0,), 1, {"a": _const_traj(AgentState(6.6, 0, 5, 0), 21)}, 1.0)
        c = stage_cost(seg, node, None, w)
        assert c.value == pytest.approx(2.0 * math.exp(-1.0), abs=1e-9)

    def test_precomputed_ego_terms_match(self):
        lane = Lane("L", np.array([[0.0, 0.0], [100.0, 0.0]]), 10.0)
        lm = LaneGraph((lane,), (np.array([[0, -4], [100, -4], [100, 4], [0, 4]], dtype=float),))
        w = CostWeights(goal=(50.0, 0.0))
        samples = tuple(AgentState(0.5 * k, 0.3, 5.0, 0.01) for k in range(21))
        seg = Trajectory(0.0, 0.1, samples)
        node = ScenarioNode((0,), 1, {"a": _const_traj(AgentState(30, 0, 5, 0), 21)}, 1.0)
        direct = stage_cost(seg, node, lm, w, goal_norm=50.0)
        terms = ego_per_sample_cost(seg, lm, w, goal_norm=50.0)
        cached = stage_cost(seg, node, lm, w, goal_norm=50.0, ego_terms=terms)
        assert cached.value == pytest.approx(direct.value, abs=1e-12)

    def test_lane_errors_batch_matches_scalar(self):
        l0 = Lane("L0", np.array([[0.0, 0.0], [50.0, 0.0], [100.0, 10.0]]), 10.0)
        l1 = Lane("L1", np.array([[0.0, 3.5], [100.0, 3.5]]), 10.0)
        lm = LaneGraph((l0, l1), (np.array([[0, -4], [100, -4], [100, 14], [0, 14]], dtype=float),))
        rng = np.random.default_rng(3)
        xs = rng.uniform(0, 100, 30)
        ys = rng.uniform(-2, 12, 30)
        psis = rng.uniform(-1, 1, 30)
        lats, herrs = _lane_errors_batch(xs, ys, psis, lm)
        for k in range(30):
            lat, herr = _lane_errors(xs[k], ys[k], psis[k], lm)
            assert lat == pytest.approx(float(lats[k]), abs=1e-12)
            assert herr == pytest.approx(float(herrs[k]), abs=1e-12)

    def test_comfort_term_wraps_heading_steps(self):
        """Heading steps across +-pi wrap like wrap_angle, sample by sample."""
        w = self._weights(w_comfort=1.0)
        psis = [3.0, math.pi, -math.pi, -3.0, 3.1, -3.1, 0.2, 0.2 - math.pi, 0.2]
        seg = Trajectory(0.0, 0.1, tuple(AgentState(0.1 * k, 0, 5.0 + 0.2 * k, p) for k, p in enumerate(psis)))
        got = ego_per_sample_cost(seg, None, w)
        psis = [s.psi for s in seg.samples]
        yaw = [wrap_angle(b - a) / 0.1 for a, b in zip(psis, psis[1:])]
        acc = [(b.v - a.v) / 0.1 for a, b in zip(seg.samples, seg.samples[1:])]
        want = [a * a + y * y for a, y in zip(acc + acc[-1:], yaw + yaw[-1:])]
        np.testing.assert_array_equal(got, np.array(want))


def _road():
    lanes = tuple(Lane(f"L{i}", np.array([[-60.0, 3.5 * i], [200.0, 3.5 * i]]), 13.0) for i in range(3))
    area = np.array([[-60.0, -1.75], [200.0, -1.75], [200.0, 8.75], [-60.0, 8.75]])
    return LaneGraph(lanes, (area,))


def _multi_agent_plan():
    """Ego tree and ensemble on a 3-lane road with three agents of distinct footprints."""
    lane_map = _road()
    agents = {
        "car": AgentState(14.0, 3.5, 8.0, 0.0),
        "truck": AgentState(30.0, 0.0, 6.0, 0.0),
        "bike": AgentState(-8.0, 7.0, 11.0, 0.05),
    }
    fps = {"car": Footprint(4.4, 1.8), "truck": Footprint(9.5, 2.5), "bike": Footprint(2.0, 0.8)}
    scene = Scene(agents=agents, footprints=fps, lane_map=lane_map)
    schedule = StageSchedule.uniform(2)
    sampler = SamplerConfig(yaw_rate_grid=(-0.1, 0.0, 0.1), speed_grid=(6.0, 10.0), lateral_offsets=(0.0,),
                            max_children=3)
    tree = grow_tree(AgentState(0.0, 3.5, 9.0, 0.0), lane_map, schedule, sampler, 5)
    ensemble = predict_ensemble(KinematicPredictor(lane_map=lane_map, branching_factor=4), scene, tree,
                                schedule, 4, 5)
    weights = CostWeights(goal=(150.0, 3.5))
    return tree, ensemble, lane_map, weights, fps


def _goal_norm(tree, weights):
    root = tree.node(tree.root_id).segment.start
    return max(1.0, math.hypot(root.x - weights.goal[0], root.y - weights.goal[1]))


def _assert_close(got: dict, want: dict):
    assert set(got) == set(want)
    for key, value in want.items():
        assert abs(got[key] - value) <= 1e-12 * max(1.0, abs(value)), key


class TestCostTensor:
    def test_ec_tensor_matches_per_entry_stage_cost(self):
        tree, ensemble, lane_map, weights, fps = _multi_agent_plan()
        ego_fp = Footprint(4.6, 1.9)
        got = build_cost_tensor_ec(tree, ensemble, lane_map, weights, ego_fp, fps).values
        norm = _goal_norm(tree, weights)
        want = {}
        for node in tree.nodes:
            for scen in ensemble.tree_for_ego_node(node.id).stage_nodes(node.stage):
                want[(node.id, scen.path)] = stage_cost(
                    node.segment, scen, lane_map, weights, ego_fp, fps, norm).value
        assert len(want) > len(tree.nodes)
        assert any(v > 0 for v in want.values())
        _assert_close(got, want)

    def test_plain_tensor_matches_per_entry_stage_cost(self):
        tree, ensemble, lane_map, weights, fps = _multi_agent_plan()
        scenario = ensemble.trees[ensemble.modes[-1].mode_id]
        got = build_cost_tensor(tree, scenario, lane_map, weights, DEFAULT_FOOTPRINT, fps).values
        norm = _goal_norm(tree, weights)
        want = {
            (node.id, scen.path): stage_cost(node.segment, scen, lane_map, weights, DEFAULT_FOOTPRINT, fps,
                                             norm).value
            for stage in range(tree.max_stage + 1)
            for node in tree.stage_nodes(stage)
            for scen in scenario.stage_nodes(stage)
        }
        _assert_close(got, want)

    def test_nodes_with_different_agents(self):
        """Nodes of one stage carrying different agents, in different orders."""
        tree, ensemble, lane_map, weights, fps = _multi_agent_plan()
        base = ensemble.trees[ensemble.modes[0].mode_id]
        kids = base.stage_nodes(1)
        trajs = kids[0].agent_trajectories
        orders = [("car", "truck", "bike"), ("bike", "car"), ("truck",), ()]
        nodes = {(): base.root}
        for j, aids in enumerate(orders):
            nodes[(j,)] = ScenarioNode((j,), 1, {a: trajs[a] for a in aids}, 1.0 / len(orders))
        scenario = ScenarioTree(nodes=nodes, schedule=base.schedule)
        got = build_cost_tensor(tree, scenario, lane_map, weights, DEFAULT_FOOTPRINT, fps).values
        norm = _goal_norm(tree, weights)
        want = {
            (node.id, scen.path): stage_cost(node.segment, scen, lane_map, weights, DEFAULT_FOOTPRINT, fps,
                                             norm).value
            for stage in (0, 1)
            for node in tree.stage_nodes(stage)
            for scen in scenario.stage_nodes(stage)
        }
        _assert_close(got, want)

    @pytest.mark.parametrize("fault", ["length", "dt"])
    def test_mismatched_agent_support_raises(self, fault):
        tree, ensemble, lane_map, weights, fps = _multi_agent_plan()
        mode = ensemble.modes[0]
        good = ensemble.trees[mode.mode_id]
        node = good.nodes[(1,)]
        traj = node.agent_trajectories["truck"]
        bad = (Trajectory(traj.t0, traj.dt, traj.samples[:-1]) if fault == "length"
               else Trajectory(traj.t0, traj.dt * 1.5, traj.samples))
        nodes = dict(good.nodes)
        nodes[(1,)] = ScenarioNode((1,), 1, {**node.agent_trajectories, "truck": bad}, node.branch_probability)
        trees = dict(ensemble.trees)
        trees[mode.mode_id] = ScenarioTree(nodes=nodes, schedule=good.schedule)
        broken = type(ensemble)(modes=ensemble.modes, trees=trees)
        with pytest.raises(ScheduleMismatch):
            build_cost_tensor_ec(tree, broken, lane_map, weights, DEFAULT_FOOTPRINT, fps)
        with pytest.raises(ScheduleMismatch):
            build_cost_tensor(tree, trees[mode.mode_id], lane_map, weights, DEFAULT_FOOTPRINT, fps)
