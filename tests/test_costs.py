"""Stage-cost terms and the batched cost tensor, against a scalar reference."""

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
)
from treeplan.costs import (
    DEFAULT_FOOTPRINT,
    _ArrayCache,
    _ego_terms,
    _lane_errors_batch,
    _stage_costs,
    build_cost_tensor,
    build_cost_tensor_ec,
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
from treeplan.world import obb_clearance, project_to_lane, wrap_angle


def running_cost(ego, ego_fp, env, lane_map, weights, accel=0.0, yaw_rate=0.0, goal_norm=1.0):
    """Scalar reference: instantaneous cost of one ego state against one joint
    environment state. env maps agent_id -> (AgentState, Footprint)."""
    cost = 0.0
    if weights.w_collision > 0:
        for state, fp in env.values():
            d = float(obb_clearance(ego.x, ego.y, ego.psi, ego_fp, state.x, state.y, state.psi, fp))
            cost += weights.w_collision * math.exp(-d / weights.collision_scale)
    if weights.w_lane > 0 and lane_map is not None and lane_map.lanes:
        lat, herr = _lane_errors(ego.x, ego.y, ego.psi, lane_map)
        cost += weights.w_lane * (lat**2 + herr**2)
    if weights.w_goal > 0 and weights.goal is not None:
        d = math.hypot(ego.x - weights.goal[0], ego.y - weights.goal[1])
        cost += weights.w_goal * d / max(goal_norm, 1e-9)
    cost += weights.w_comfort * (accel**2 + yaw_rate**2)
    return cost


def _lane_errors(x, y, psi, lane_map):
    """Scalar reference for _lane_errors_batch."""
    best = (math.inf, 0.0)
    for lane in lane_map.lanes:
        _, lat, heading = project_to_lane((x, y), lane.centerline)
        if abs(lat) < abs(best[0]):
            best = (lat, wrap_angle(psi - heading))
    return best


def stage_cost(seg, node, lane_map, weights, ego_fp=DEFAULT_FOOTPRINT, agent_fps=None, goal_norm=1.0):
    """Stage cost of one (ego segment, scenario node) pair: _stage_costs with S = 1."""
    costs = _stage_costs(seg, [node], lane_map, weights, ego_fp, agent_fps or {}, goal_norm, _ArrayCache())
    return float(costs[0])


def _const_traj(state, n, dt=0.1, t0=0.0):
    return Trajectory(t0, dt, (state,) * n)


class TestRunningCost:
    """Single terms through a stage of one 1 s step: the trapezoid of a
    constant integrand c over [0, 1] is c itself."""

    def test_collision_term_at_one_scale(self):
        """Clearance equal to collision_scale gives exactly e^-1."""
        w = CostWeights(w_collision=1.0, w_lane=0.0, w_goal=0.0, w_comfort=0.0, collision_scale=2.0)
        seg = _const_traj(AgentState(0, 0, 5, 0), 2, dt=1.0)
        # 4.6 m boxes nose to tail: clearance = gap - length = 6.6 - 4.6 = 2
        node = ScenarioNode((0,), 1, {"a": _const_traj(AgentState(6.6, 0, 5, 0), 2, dt=1.0)}, 1.0)
        assert stage_cost(seg, node, None, w) == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_collision_term_is_one_at_contact(self):
        w = CostWeights(w_collision=1.0, w_lane=0.0, w_goal=0.0, w_comfort=0.0)
        seg = _const_traj(AgentState(0, 0, 5, 0), 2, dt=1.0)
        node = ScenarioNode((0,), 1, {"a": _const_traj(AgentState(1.0, 0, 5, 0), 2, dt=1.0)}, 1.0)
        assert stage_cost(seg, node, None, w) == pytest.approx(1.0)

    def test_comfort_term(self):
        """Accel 2 and yaw rate 0.3 held over the step."""
        w = CostWeights(w_collision=0.0, w_lane=0.0, w_goal=0.0, w_comfort=0.5)
        seg = Trajectory(0.0, 1.0, (AgentState(0, 0, 5, 0), AgentState(0, 0, 7, 0.3)))
        node = ScenarioNode((), 1, {}, 1.0)
        assert stage_cost(seg, node, None, w) == pytest.approx(0.5 * (4.0 + 0.09))


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
        assert stage_cost(seg, node, None, w, goal_norm=1.0) == pytest.approx(2.0, abs=1e-12)

    def test_zero_duration_segment_costs_nothing(self):
        w = self._weights(w_goal=1.0)
        seg = Trajectory(0.0, 0.1, (AgentState(0, 0, 5, 0),))
        node = ScenarioNode((), 0, {}, 1.0)
        assert stage_cost(seg, node, None, CostWeights(goal=(10.0, 0.0))) == 0.0

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
        assert stage_cost(seg, node, None, w) == pytest.approx(2.0 * math.exp(-1.0), abs=1e-9)

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
        got = _ego_terms(seg.arrays(), seg.dt, None, w, 1.0)
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
                    node.segment, scen, lane_map, weights, ego_fp, fps, norm)
        assert len(want) > len(tree.nodes)
        assert any(v > 0 for v in want.values())
        _assert_close(got, want)

    def test_ec_tensor_matches_scalar_running_cost(self):
        """Independent of _stage_costs: every entry is the trapezoid, summed
        sample by sample, of the scalar running_cost with finite-differenced
        comfort inputs. Both sides evaluate each term in float64 to within a
        few ulps and a stage sums 21 samples, so entries agree to about 1e-15
        relative (4e-16 at most on this plan); 1e-12 leaves a wide margin.
        bench/checks.py allows 1e-7 because it also sums in another order and
        reimplements the clearance and lane geometry."""
        tree, ensemble, lane_map, weights, fps = _multi_agent_plan()
        ego_fp = Footprint(4.6, 1.9)
        got = build_cost_tensor_ec(tree, ensemble, lane_map, weights, ego_fp, fps).values
        norm = _goal_norm(tree, weights)
        want = {}
        for node in tree.nodes:
            seg = node.segment
            samples, dt = seg.samples, seg.dt
            acc = [(b.v - a.v) / dt for a, b in zip(samples, samples[1:])]
            yaw = [wrap_angle(b.psi - a.psi) / dt for a, b in zip(samples, samples[1:])]
            acc, yaw = acc + acc[-1:], yaw + yaw[-1:]
            for scen in ensemble.tree_for_ego_node(node.id).stage_nodes(node.stage):
                # a one-sample root segment has no steps: no samples, cost 0
                per_sample = [
                    running_cost(ego, ego_fp,
                                 {aid: (t.samples[k], fps[aid]) for aid, t in scen.agent_trajectories.items()},
                                 lane_map, weights, a, y, norm)
                    for k, (ego, a, y) in enumerate(zip(samples, acc, yaw))
                ]
                want[(node.id, scen.path)] = sum(dt * (a + b) / 2.0 for a, b in zip(per_sample, per_sample[1:]))
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
                                             norm)
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
                                             norm)
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
