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
import treeplan.costs
from treeplan.costs import (
    DEFAULT_FOOTPRINT,
    _ego_terms,
    _lane_errors_batch,
    build_cost_tensor,
    build_cost_tensor_ec,
)
from treeplan.errors import ScheduleMismatch
from treeplan.prediction import (
    ECPredictionEnsemble,
    KinematicPredictor,
    Scene,
    ScenarioNode,
    ScenarioTree,
    predict_ensemble,
)
from treeplan.sampler import SamplerConfig, TrajectoryTree, TreeNode, grow_tree
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
        _, lat, heading = project_to_lane((x, y), lane)
        if abs(lat) < abs(best[0]):
            best = (lat, wrap_angle(psi - heading))
    return best


def stage_cost(seg, node, lane_map, weights, ego_fp=DEFAULT_FOOTPRINT, agent_fps=None, root=None):
    """Stage cost of one (ego segment, scenario node) pair: build_cost_tensor
    on a chain of ego nodes whose one node at the scenario node's stage holds
    seg. The chain's root, which sets the goal normalisation, stands at `root`
    (default seg.start); a stage-0 pair makes seg the root itself."""
    hold = Trajectory(seg.t0, seg.dt, (seg.start if root is None else root,))
    chain = tuple(TreeNode(k, k, k - 1 if k else None, seg if k == node.stage else hold)
                  for k in range(node.stage + 1))
    schedule = StageSchedule.uniform(max(node.stage, 1))
    scenario = ScenarioTree(nodes={node.path: node}, schedule=schedule)
    tensor = build_cost_tensor(TrajectoryTree(chain, schedule), scenario, lane_map, weights, ego_fp, agent_fps)
    return tensor.get(node.stage, node.path)


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
        # a root at the goal normalises the goal term by max(1, 0) = 1
        root = AgentState(0.0, 0.0, 1.0, 0.0)
        assert stage_cost(seg, node, None, w, root=root) == pytest.approx(2.0, abs=1e-12)

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


def _root(tree):
    return tree.node(tree.root_id).segment.start


def _goal_norm(tree, weights):
    root = _root(tree)
    return max(1.0, math.hypot(root.x - weights.goal[0], root.y - weights.goal[1]))


def _assert_close(got: dict, want: dict):
    assert set(got) == set(want)
    for key, value in want.items():
        assert abs(got[key] - value) <= 1e-12 * max(1.0, abs(value)), key


def _scalar_tensor(tree, scenario, lane_map, weights, ego_fp, fps):
    """Every entry as the trapezoid, summed sample by sample, of the scalar
    running_cost with finite-differenced comfort inputs."""
    norm = _goal_norm(tree, weights)
    want = {}
    for node in tree.nodes:
        seg = node.segment
        samples, dt = seg.samples, seg.dt
        acc = [(b.v - a.v) / dt for a, b in zip(samples, samples[1:])]
        yaw = [wrap_angle(b.psi - a.psi) / dt for a, b in zip(samples, samples[1:])]
        acc, yaw = acc + acc[-1:], yaw + yaw[-1:]
        for scen in scenario.tree_for_ego_node(node.id).stage_nodes(node.stage):
            # a one-sample root segment has no steps: no samples, cost 0
            per_sample = [
                running_cost(ego, ego_fp,
                             {aid: (t.samples[k], fps[aid]) for aid, t in scen.agent_trajectories.items()},
                             lane_map, weights, a, y, norm)
                for k, (ego, a, y) in enumerate(zip(samples, acc, yaw))
            ]
            want[(node.id, scen.path)] = sum(dt * (a + b) / 2.0 for a, b in zip(per_sample, per_sample[1:]))
    return want


def _copy(traj):
    return Trajectory(traj.t0, traj.dt, tuple(traj.samples))


def _rebuilt(ensemble, agents_of):
    """The ensemble with every node's trajectories copied into new objects;
    agents_of(mode index, node) gives the agents each node keeps, in order."""
    trees = {}
    for i, mode in enumerate(ensemble.modes):
        tree = ensemble.trees[mode.mode_id]
        nodes = {}
        for path, node in tree.nodes.items():
            trajs = {a: _copy(node.agent_trajectories[a]) for a in agents_of(i, node)}
            nodes[path] = ScenarioNode(path, node.stage, trajs, node.branch_probability)
        trees[mode.mode_id] = ScenarioTree(nodes=nodes, schedule=tree.schedule)
    return ECPredictionEnsemble(modes=ensemble.modes, trees=trees)


def _trajectory_ids(ensemble):
    return [id(t) for tree in ensemble.trees.values() for node in tree.nodes.values()
            for t in node.agent_trajectories.values()]


class TestCostTensor:
    def test_ec_tensor_matches_per_entry_stage_cost(self):
        tree, ensemble, lane_map, weights, fps = _multi_agent_plan()
        ego_fp = Footprint(4.6, 1.9)
        got = build_cost_tensor_ec(tree, ensemble, lane_map, weights, ego_fp, fps).values
        want = {}
        for node in tree.nodes:
            for scen in ensemble.tree_for_ego_node(node.id).stage_nodes(node.stage):
                want[(node.id, scen.path)] = stage_cost(
                    node.segment, scen, lane_map, weights, ego_fp, fps, _root(tree))
        assert len(want) > len(tree.nodes)
        assert any(v > 0 for v in want.values())
        _assert_close(got, want)

    def test_ec_tensor_matches_scalar_running_cost(self):
        """Independent of the batched build: see _scalar_tensor. Both sides
        evaluate each term in float64 to within a few ulps and a stage sums
        21 samples, so entries agree to about 1e-15 relative (4e-16 at most on
        this plan); 1e-12 leaves a wide margin. bench/checks.py allows 1e-7
        because it also sums in another order and reimplements the clearance
        and lane geometry."""
        tree, ensemble, lane_map, weights, fps = _multi_agent_plan()
        ego_fp = Footprint(4.6, 1.9)
        got = build_cost_tensor_ec(tree, ensemble, lane_map, weights, ego_fp, fps).values
        want = _scalar_tensor(tree, ensemble, lane_map, weights, ego_fp, fps)
        assert len(want) > len(tree.nodes)
        assert any(v > 0 for v in want.values())
        _assert_close(got, want)

    def test_unshared_trajectories_with_mixed_agents_match_scalar_running_cost(self):
        """Same-stage ego nodes read different scenario trees whose nodes hold
        their own trajectory objects and differ in agent set and order."""
        tree, ensemble, lane_map, weights, fps = _multi_agent_plan()
        orders = [("car", "truck", "bike"), ("bike", "car"), ("truck",), ("bike", "truck", "car"), ()]

        def agents_of(i, node):
            return orders[(i + node.stage + sum(node.path)) % len(orders)] if node.stage else tuple(
                node.agent_trajectories)

        mixed = _rebuilt(ensemble, agents_of)
        ego_fp = Footprint(4.6, 1.9)
        for stage in (1, 2):
            read = {id(mixed.tree_for_ego_node(n.id)) for n in tree.stage_nodes(stage)}
            assert len(read) == len(tree.stage_nodes(stage)) > 1
            seen = {tuple(s.agent_trajectories) for n in tree.stage_nodes(stage)
                    for s in mixed.tree_for_ego_node(n.id).stage_nodes(stage)}
            assert len(seen) == len(orders)
        assert len(set(_trajectory_ids(mixed))) == len(_trajectory_ids(mixed))
        got = build_cost_tensor_ec(tree, mixed, lane_map, weights, ego_fp, fps).values
        _assert_close(got, _scalar_tensor(tree, mixed, lane_map, weights, ego_fp, fps))

    def test_equal_trajectories_in_new_objects_give_the_same_tensor(self):
        """The distinct-trajectory index keys on identity; equal copies only
        add columns and must not change a bit of any entry."""
        tree, ensemble, lane_map, weights, fps = _multi_agent_plan()
        copied = _rebuilt(ensemble, lambda i, node: tuple(node.agent_trajectories))
        assert len(set(_trajectory_ids(ensemble))) < len(_trajectory_ids(ensemble))
        assert len(set(_trajectory_ids(copied))) == len(_trajectory_ids(copied))
        shared = build_cost_tensor_ec(tree, ensemble, lane_map, weights, DEFAULT_FOOTPRINT, fps).values
        got = build_cost_tensor_ec(tree, copied, lane_map, weights, DEFAULT_FOOTPRINT, fps).values
        assert list(got) == list(shared)
        assert [v.hex() for v in got.values()] == [v.hex() for v in shared.values()]

    @pytest.mark.parametrize("w_collision", [10.0, 0.0])
    def test_one_clearance_call_per_stage_and_agent(self, monkeypatch, w_collision):
        tree, ensemble, lane_map, weights, fps = _multi_agent_plan()
        calls = []

        def counted(*args):
            calls.append(args)
            return obb_clearance(*args)

        monkeypatch.setattr(treeplan.costs, "obb_clearance", counted)
        weights = CostWeights(w_collision=w_collision, goal=weights.goal)
        build_cost_tensor_ec(tree, ensemble, lane_map, weights, DEFAULT_FOOTPRINT, fps)
        want = sum(
            len({aid for n in tree.stage_nodes(stage) for s in ensemble.tree_for_ego_node(n.id).stage_nodes(stage)
                 for aid in s.agent_trajectories})
            for stage in range(1, tree.max_stage + 1)
        )
        assert want == 2 * 3  # two stages after the root, three agents
        assert len(calls) == (want if w_collision else 0)

    def test_plain_tensor_matches_per_entry_stage_cost(self):
        tree, ensemble, lane_map, weights, fps = _multi_agent_plan()
        scenario = ensemble.trees[ensemble.modes[-1].mode_id]
        got = build_cost_tensor(tree, scenario, lane_map, weights, DEFAULT_FOOTPRINT, fps).values
        want = {
            (node.id, scen.path): stage_cost(node.segment, scen, lane_map, weights, DEFAULT_FOOTPRINT, fps,
                                             _root(tree))
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
        want = {
            (node.id, scen.path): stage_cost(node.segment, scen, lane_map, weights, DEFAULT_FOOTPRINT, fps,
                                             _root(tree))
            for stage in (0, 1)
            for node in tree.stage_nodes(stage)
            for scen in scenario.stage_nodes(stage)
        }
        _assert_close(got, want)

    @pytest.mark.parametrize("fault", ["length", "dt"])
    def test_mismatched_agent_support_raises(self, fault):
        tree, ensemble, lane_map, weights, fps = _multi_agent_plan()
        first, last = tree.stage_nodes(1)[0], tree.stage_nodes(1)[-1]
        assert first.id != last.id
        # only the last stage-1 ego node reads this mode's tree at stage 1
        mode = ensemble.mode_for_ego_node(last.id)
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
        place = r"stage 1, ego node {}, scenario node \(1,\): agent truck"
        with pytest.raises(ScheduleMismatch, match=place.format(last.id)):
            build_cost_tensor_ec(tree, broken, lane_map, weights, DEFAULT_FOOTPRINT, fps)
        # a plain tree is read by every ego node, the first one first
        with pytest.raises(ScheduleMismatch, match=place.format(first.id)):
            build_cost_tensor(tree, trees[mode.mode_id], lane_map, weights, DEFAULT_FOOTPRINT, fps)

    @pytest.mark.parametrize("fault", ["length", "dt"])
    def test_mismatched_ego_segments_of_a_stage_raise(self, fault):
        """The stage's ego segments are stacked into one block, so they must
        share their sample count and dt."""
        tree, ensemble, lane_map, weights, fps = _multi_agent_plan()
        first, odd = tree.stage_nodes(2)[:2]
        seg = odd.segment
        bad = (Trajectory(seg.t0, seg.dt, seg.samples[:-1]) if fault == "length"
               else Trajectory(seg.t0, seg.dt * 1.5, seg.samples))
        nodes = tuple(TreeNode(n.id, n.stage, n.parent_id, bad) if n is odd else n for n in tree.nodes)
        broken = TrajectoryTree(nodes, tree.schedule)
        with pytest.raises(ScheduleMismatch, match=rf"stage 2: ego node {odd.id} has .*, ego node {first.id} has"):
            build_cost_tensor_ec(broken, ensemble, lane_map, weights, DEFAULT_FOOTPRINT, fps)
