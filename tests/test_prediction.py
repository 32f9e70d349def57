"""Ego-conditioned scenario prediction: modes, kinematic hypotheses,
causal consistency."""

import math
from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treeplan import (
    AgentState,
    KinematicPredictor,
    Lane,
    LaneGraph,
    Scene,
    StageSchedule,
    Trajectory,
    flatten_ec_modes,
    grow_tree,
    predict_ensemble,
    SamplerConfig,
)
from treeplan import prediction
from treeplan.errors import CausalConsistencyViolation, PredictorFailure, UnknownNode
from treeplan.prediction import (
    ECPredictionEnsemble,
    ScenarioNode,
    ScenarioTree,
    validate_causal_consistency,
)
from treeplan.sampler import TreeNode, TrajectoryTree
from treeplan.world import lane_points_at_batch
from treeplan.verify import (
    FuturePeekingPredictor,
    make_shared_prefix_tree,
    predict_per_mode,
    random_scene,
    run_adversarial_consistency_case,
)


def _structural_tree(num_stages, branch):
    """Uniform tree whose segments are constant-state placeholders."""
    schedule = StageSchedule.uniform(num_stages, stage_duration=1.0)
    hold = AgentState(0.0, 0.0, 0.0, 0.0)
    nodes = [TreeNode(id=0, stage=0, parent_id=None, segment=Trajectory(0.0, 0.1, (hold,)))]
    frontier = [0]
    nid = 1
    for stage in range(1, num_stages + 1):
        t0 = schedule.stage_start(stage)
        seg = Trajectory(t0, 0.1, (hold,) * 11)
        nxt = []
        for pid in frontier:
            for _ in range(branch):
                nodes.append(TreeNode(id=nid, stage=stage, parent_id=pid, segment=seg))
                nxt.append(nid)
                nid += 1
        frontier = nxt
    return TrajectoryTree(nodes=tuple(nodes), schedule=schedule)


class TestFlattenModes:
    def test_one_mode_per_leaf(self):
        tree = _structural_tree(2, 2)
        modes = flatten_ec_modes(tree)
        assert len(modes) == 4

    def test_binary_three_stage_dfs_order(self):
        tree = _structural_tree(3, 2)
        modes = flatten_ec_modes(tree)
        assert len(modes) == 8
        # DFS order: leaf paths sorted by the id sequence from the root
        paths = [m.ego_path for m in modes]
        assert paths == sorted(paths)
        for path in paths:
            assert path[0] == 0 and len(path) == 4
            for a, b in zip(path, path[1:]):
                assert tree.node(b).parent_id == a


def _slice_stage(traj, schedule, stage):
    """Reference: the stage-i portion of a full-horizon trajectory."""
    start = schedule.stage_start(stage)
    k0 = int(round((start - traj.t0) / traj.dt))
    k1 = k0 + int(round(schedule.stage_durations[stage] / traj.dt))
    return Trajectory(t0=start, dt=traj.dt, samples=traj.samples[k0 : k1 + 1])


def _join(segments):
    """One trajectory through consecutive segments, each join sample kept once."""
    first = segments[0]
    samples = first.samples + tuple(s for seg in segments[1:] for s in seg.samples[1:])
    return Trajectory(first.t0, first.dt, samples)


class TestModeSegments:
    def test_modes_carry_the_tree_segments(self):
        """Each mode holds its path's own segments, and stage i of their join
        is segment i, so the predictor sees what the joined path gave it."""
        schedule = StageSchedule.uniform(2)
        tree = grow_tree(AgentState(0, 0, 10, 0), None, schedule, SamplerConfig(max_children=2), seed=5)
        modes = flatten_ec_modes(tree)
        assert len(modes) == len(tree.leaves()) > 1
        for mode in modes:
            assert len(mode.ego_segments) == len(mode.ego_path)
            for node_id, seg in zip(mode.ego_path, mode.ego_segments):
                assert seg is tree.node(node_id).segment
            joined = _join(mode.ego_segments)
            assert joined.t0 == 0.0 and joined.t_end == pytest.approx(schedule.horizon)
            for stage in range(1, schedule.num_stages + 1):
                assert mode.ego_segments[stage] == _slice_stage(joined, schedule, stage)


class TestKinematicPredictor:
    def test_braking_hypothesis_kinematics(self):
        """10 m/s braking at 4 m/s^2 over 2 s travels 12 m and ends at 2 m/s;
        maintaining travels 20 m at 10 m/s."""
        maintain, brake = prediction._advance_agent(AgentState(0, 0, 10, 0), 4.0, 2.0, 0.1, 0.0, None)
        assert brake.end.x == pytest.approx(12.0, abs=1e-9)
        assert brake.end.v == pytest.approx(2.0, abs=1e-9)
        assert maintain.end.x == pytest.approx(20.0, abs=1e-9)
        assert maintain.end.v == 10.0
        assert len(maintain.samples) == len(brake.samples) == 21

    def test_braking_stops_at_zero(self):
        _, brake = prediction._advance_agent(AgentState(0, 0, 2.0, 0), 4.0, 2.0, 0.1, 0.0, None)
        assert brake.end.v == 0.0

    def test_single_agent_two_modes(self):
        pred = KinematicPredictor(branching_factor=4)
        ego_seg = Trajectory(0.0, 0.1, (AgentState(-100, 0, 5, 0),) * 21)
        hyps = pred.predict_stage({"a0": AgentState(0, 0, 8, 0)}, ego_seg, 1, 0, {})
        assert len(hyps) == 2
        probs = sorted(p for _, p in hyps)
        assert probs == pytest.approx([0.3, 0.7])
        assert sum(probs) == pytest.approx(1.0)

    def test_joint_truncated_to_branching_factor(self):
        pred = KinematicPredictor(branching_factor=3)
        ego_seg = Trajectory(0.0, 0.1, (AgentState(-100, 0, 5, 0),) * 21)
        states = {"a0": AgentState(0, 0, 8, 0), "a1": AgentState(10, 3, 8, 0)}
        hyps = pred.predict_stage(states, ego_seg, 1, 0, {})
        assert len(hyps) == 3
        assert sum(p for _, p in hyps) == pytest.approx(1.0)
        # ordered by descending probability
        ps = [p for _, p in hyps]
        assert ps == sorted(ps, reverse=True)

    def test_yield_boost_raises_brake_probability(self):
        pred = KinematicPredictor(branching_factor=4, tau_yield=3.0, yield_boost=2.0)
        agent = AgentState(0, 0, 8, 0)
        far = Trajectory(0.0, 0.1, (AgentState(-100, 50, 5, 0),) * 21)
        crossing = Trajectory(0.0, 0.1, tuple(AgentState(5.0 + k, 0.5, 5, 0) for k in range(21)))
        p_brake_far = min(p for _, p in pred.predict_stage({"a0": agent}, far, 1, 0, {}))
        p_brake_near = min(p for _, p in pred.predict_stage({"a0": agent}, crossing, 1, 0, {}))
        assert p_brake_near > p_brake_far


class TestEnsemble:
    def _ensemble(self, seed=0, branching=2):
        sch = StageSchedule.uniform(2, stage_duration=1.0)
        cfg = SamplerConfig(
            accel_grid=(-2.0, 0.0, 2.0), yaw_rate_grid=(-0.1, 0.0, 0.1),
            speed_grid=(), lateral_offsets=(), max_children=2,
        )
        tree = grow_tree(AgentState(0, 0, 8, 0), None, sch, cfg, seed)
        scene = Scene(agents={"a0": AgentState(15.0, 0.0, 6.0, 0.0)})
        pred = KinematicPredictor(branching_factor=branching)
        return tree, predict_ensemble(pred, scene, tree, sch, branching, seed)

    def test_tree_per_mode(self):
        tree, ens = self._ensemble()
        assert len(ens.modes) == len(tree.leaves())
        for mode in ens.modes:
            _validate_tree(ens.trees[mode.mode_id])

    def test_shared_prefix_trees_identical(self):
        """Modes sharing the stage-1 ego segment carry identical stage-1
        scenario nodes (the causal-consistency definition at i = 1)."""
        tree, ens = self._ensemble()
        by_prefix = {}
        for mode in ens.modes:
            by_prefix.setdefault(mode.ego_path[:2], []).append(mode)
        for prefix, group in by_prefix.items():
            if len(group) < 2:
                continue
            ref = ens.trees[group[0].mode_id]
            for other in group[1:]:
                tr = ens.trees[other.mode_id]
                for node in ref.stage_nodes(1):
                    peer = tr.nodes[node.path]
                    assert peer.branch_probability == node.branch_probability
                    for aid, traj in node.agent_trajectories.items():
                        assert peer.agent_trajectories[aid].samples == traj.samples

    def test_validator_accepts_kinematic_ensembles(self):
        _, ens = self._ensemble(seed=5)
        validate_causal_consistency(ens)

    def test_branch_probabilities_sum_to_one(self):
        _, ens = self._ensemble(seed=2)
        for tree in ens.trees.values():
            total = sum(p for _, p in tree.leaf_paths_with_probability())
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_node_count_bound_paper_scale(self):
        """Branching 4 over 2 stages gives at most 1 + 4 + 16 nodes per tree."""
        sch = StageSchedule.uniform(2, stage_duration=1.0)
        cfg = SamplerConfig(
            accel_grid=(-2.0, 0.0, 2.0), yaw_rate_grid=(-0.1, 0.0, 0.1),
            speed_grid=(), lateral_offsets=(), max_children=2,
        )
        tree = grow_tree(AgentState(0, 0, 8, 0), None, sch, cfg, 1)
        scene = Scene(agents={"a0": AgentState(15.0, 0.0, 6.0, 0.0), "a1": AgentState(5.0, 3.0, 6.0, 0.0)})
        ens = predict_ensemble(KinematicPredictor(branching_factor=4), scene, tree, sch, 4, 1)
        for t in ens.trees.values():
            assert len(t.nodes) <= 21


class TestRolloutTable:
    """predict_ensemble rolls each agent state's (maintain, brake) pair out
    once per call."""

    @staticmethod
    def _inputs(lane_map):
        sch = StageSchedule.uniform(2, stage_duration=1.0)
        cfg = SamplerConfig(
            accel_grid=(-2.0, 0.0, 2.0), yaw_rate_grid=(-0.1, 0.0, 0.1),
            speed_grid=(), lateral_offsets=(), max_children=2,
        )
        tree = grow_tree(AgentState(0, 0, 8, 0), lane_map, sch, cfg, 3)
        # a2 stands still, so its state opens both stages and only t0 tells the rollouts apart
        agents = {
            "a0": AgentState(15.0, 0.0, 6.0, 0.0),
            "a1": AgentState(10.0, 3.5, 9.0, 0.0),
            "a2": AgentState(30.0, 0.0, 0.0, 0.0),
        }
        return tree, Scene(agents=agents, lane_map=lane_map)

    @staticmethod
    def _predict(pred, tree, scene):
        return predict_ensemble(pred, scene, tree, tree.schedule, pred.branching_factor, 7)

    @staticmethod
    def _count_rollouts(monkeypatch):
        calls = []
        real = prediction._advance_agent

        def counted(state, b_decel, duration, dt, t0, lane_map):
            calls.append((state, b_decel, t0))
            return real(state, b_decel, duration, dt, t0, lane_map)

        monkeypatch.setattr(prediction, "_advance_agent", counted)
        return calls

    @staticmethod
    def _needed(ensemble, b_decel):
        """(agent state, braking deceleration, stage start) of every rollout
        pair that an expanded scenario node of some mode needs."""
        need = set()
        for scen in ensemble.trees.values():
            for node in scen.nodes.values():
                if not scen.children(node.path):
                    continue
                t0 = scen.schedule.stage_start(node.stage + 1)
                for traj in node.agent_trajectories.values():
                    need.add((traj.end, b_decel, t0))
        return need

    def test_each_rollout_runs_once_per_call(self, monkeypatch, two_lane_map):
        tree, scene = self._inputs(two_lane_map)
        pred = KinematicPredictor(lane_map=two_lane_map, branching_factor=4)
        calls = self._count_rollouts(monkeypatch)
        ensemble = self._predict(pred, tree, scene)
        assert len(calls) == len(set(calls))
        assert set(calls) == self._needed(ensemble, pred.b_decel)
        stage_calls = sum(
            len(scen.nodes) - len(scen.leaf_paths_with_probability()) for scen in ensemble.trees.values()
        )
        assert len(calls) < len(scene.agents) * stage_calls  # modes shared rollouts

    def test_nothing_is_kept_across_calls(self, monkeypatch, two_lane_map):
        tree, scene = self._inputs(two_lane_map)
        pred = KinematicPredictor(lane_map=two_lane_map, branching_factor=4)
        before = dict(vars(pred))
        calls = self._count_rollouts(monkeypatch)
        self._predict(pred, tree, scene)
        first = list(calls)
        assert vars(pred).keys() == before.keys()
        assert all(vars(pred)[k] is v for k, v in before.items())
        calls.clear()
        self._predict(pred, tree, scene)
        assert calls == first

    def test_ensemble_equals_a_fresh_table_per_stage_call(self, two_lane_map):
        class Fresh(KinematicPredictor):
            def predict_stage(self, states, ego_segment, stage, rng_key, rollouts):
                return super().predict_stage(states, ego_segment, stage, rng_key, {})

        tree, scene = self._inputs(two_lane_map)
        ensemble = self._predict(KinematicPredictor(lane_map=two_lane_map, branching_factor=4), tree, scene)
        reference = self._predict(Fresh(lane_map=two_lane_map, branching_factor=4), tree, scene)
        assert ensemble == reference


@dataclass
class _Recording(KinematicPredictor):
    """Records every expansion's stage, key and states, in call order."""

    calls: list = field(default_factory=list)

    def predict_stage(self, states, ego_segment, stage, rng_key, rollouts):
        self.calls.append((stage, rng_key, dict(states)))
        return super().predict_stage(states, ego_segment, stage, rng_key, rollouts)


class TestExpansion:
    """The key and the states each expansion hands the predictor."""

    @staticmethod
    def _recorded(num_stages=3, branch=2):
        """(tree, scene, ensemble, calls) of an ensemble with two agents."""
        tree = _structural_tree(num_stages, branch)
        scene = Scene(agents={"a": AgentState(10.0, 0.0, 5.0, 0.0), "b": AgentState(20.0, 3.0, 4.0, 0.0)})
        pred = _Recording(branching_factor=2)
        ensemble = predict_ensemble(pred, scene, tree, tree.schedule, 2, 9)
        return tree, scene, ensemble, pred.calls

    def test_one_call_per_distinct_key(self):
        """Each (ego prefix, scenario path) is expanded once: an ego node at
        stage s >= 1 expands each stage-(s-1) node of its parent, once."""
        for num_stages, branch in [(1, 3), (2, 2), (3, 2), (2, 3)]:
            tree, _, ensemble, calls = self._recorded(num_stages, branch)
            keys = [key for _, key, _ in calls]
            expected = sum(
                len(ensemble.tree_for_ego_node(ego.parent_id).stage_nodes(ego.stage - 1))
                for ego in tree.nodes
                if ego.stage >= 1
            )
            assert len(keys) == len(set(keys)) == expected
        # 3 stages, branch 2: 2, 4 and 8 ego nodes expand 1, 2 and 4 nodes each
        assert len(self._recorded(3, 2)[3]) == 2 * 1 + 4 * 2 + 8 * 4

    def test_keys_name_the_expansion(self):
        """A key is (seed, stage, scenario path, ego prefix) of a node that
        the ego prefix's parent holds, and the call's stage is the key's."""
        tree, _, ensemble, calls = self._recorded()
        for stage, key, _ in calls:
            hash(key)
            seed, key_stage, path, prefix = key
            assert (seed, key_stage) == (9, stage)
            assert prefix == tree.path_to(prefix[-1]) and tree.node(prefix[-1]).stage == stage
            assert path in ensemble.tree_for_ego_node(prefix[-2]).nodes and len(path) == stage - 1

    def test_states_are_the_end_states_of_the_expanded_node(self):
        tree, scene, ensemble, calls = self._recorded()
        for _, (_, _, path, prefix), states in calls:
            node = ensemble.tree_for_ego_node(prefix[-2]).nodes[path]
            assert states == {aid: traj.end for aid, traj in node.agent_trajectories.items()}
            if path == ():
                assert states == scene.agents

    def test_modes_sharing_an_ego_prefix_share_its_nodes(self):
        """Modes through the same stage-s ego node hold the same stage-s node
        objects; modes that part before stage s hold none in common."""
        _, _, ensemble, _ = self._recorded()
        for a in ensemble.modes:
            for b in ensemble.modes:
                for s in range(4):
                    nodes_a = ensemble.trees[a.mode_id].stage_nodes(s)
                    nodes_b = ensemble.trees[b.mode_id].stage_nodes(s)
                    shared = a.ego_path[: s + 1] == b.ego_path[: s + 1]
                    assert [x is y for x, y in zip(nodes_a, nodes_b)] == [shared] * len(nodes_a)
        # each tree's nodes are inserted by stage, then path
        for scen in ensemble.trees.values():
            assert list(scen.nodes) == sorted(scen.nodes, key=lambda p: (len(p), p))

    def test_a_predictor_editing_its_states_leaves_the_tree_unchanged(self):
        """Each expansion gets its own dict: overwriting, adding and removing
        entries after predicting changes no node of any tree."""
        class Editing(KinematicPredictor):
            def predict_stage(self, states, ego_segment, stage, rng_key, rollouts):
                hyps = super().predict_stage(states, ego_segment, stage, rng_key, rollouts)
                states["a"] = AgentState(-50.0, 9.0, 1.0, 1.0)
                states["ghost"] = states.pop("b")
                return hyps

        tree = _structural_tree(3, 2)
        agents = {"a": AgentState(10.0, 0.0, 5.0, 0.0), "b": AgentState(20.0, 3.0, 4.0, 0.0)}
        scene = Scene(agents=dict(agents))
        edited = predict_ensemble(Editing(branching_factor=2), scene, tree, tree.schedule, 2, 9)
        plain = predict_ensemble(KinematicPredictor(branching_factor=2), scene, tree, tree.schedule, 2, 9)
        assert edited == plain
        assert scene.agents == agents
        for scen in edited.trees.values():
            assert {aid: t.samples for aid, t in scen.root.agent_trajectories.items()} == {
                aid: (state,) for aid, state in agents.items()
            }


# ---------------------------------------------------------------------------
# reference: the predictor as it was before the per-call rework, one rollout
# per acceleration, the yield test on AgentState samples, and the joint
# product carried as labelled tuples


def _ref_advance_agent(state, accel, duration, dt, t0, lane_map):
    """Constant-acceleration advance along heading or the nearest centerline."""
    n = int(round(duration / dt))
    nearest = lane_map.nearest_lane(state.x, state.y) if lane_map else None
    vs = np.maximum(0.0, state.v + accel * dt * np.arange(n + 1))
    s = np.concatenate([[0.0], np.cumsum(0.5 * (vs[:-1] + vs[1:]) * dt)])
    if nearest is not None:
        lane, arc0, lat = nearest
        px, py, heading = lane_points_at_batch(lane, arc0 + s)
        xs = px - lat * np.sin(heading)
        ys = py + lat * np.cos(heading)
        samples = [state] + [AgentState(xs[k], ys[k], vs[k], heading[k]) for k in range(1, n + 1)]
    else:
        samples = [state] + [
            AgentState(
                state.x + s[k] * math.cos(state.psi),
                state.y + s[k] * math.sin(state.psi),
                vs[k],
                state.psi,
            )
            for k in range(1, n + 1)
        ]
    return Trajectory(t0=t0, dt=dt, samples=tuple(samples))


def _ref_ego_crosses_in_front(ego_segment, agent, tau_yield, lateral_band):
    """True when some conditioned ego sample lies in the agent's near corridor."""
    reach = max(agent.v, 1.0) * tau_yield
    c, s = math.cos(agent.psi), math.sin(agent.psi)
    for sample in ego_segment.samples:
        dx, dy = sample.x - agent.x, sample.y - agent.y
        lon = dx * c + dy * s
        lat = -dx * s + dy * c
        if 0.0 < lon <= reach and abs(lat) <= lateral_band:
            return True
    return False


def _ref_rollouts(pred, state, t0, duration, dt, rollouts):
    key = (state, pred.b_decel, t0, duration, dt)
    if key not in rollouts:
        rollouts[key] = tuple(
            _ref_advance_agent(state, accel, duration, dt, t0, pred.lane_map) for accel in (0.0, -pred.b_decel)
        )
    return rollouts[key]


def _ref_predict_stage(pred, history, ego_segment, rollouts):
    """Joint hypotheses for one stage, carried as labelled tuples."""
    t0, duration, dt = ego_segment.t0, ego_segment.duration, ego_segment.dt
    aids = sorted(history)
    per_agent = []
    for aid in aids:
        state = history[aid].end
        maintain, brake = _ref_rollouts(pred, state, t0, duration, dt, rollouts)
        p_brake = pred.brake_prior
        if _ref_ego_crosses_in_front(ego_segment, state, pred.tau_yield, prediction.YIELD_LATERAL):
            p_brake *= pred.yield_boost
        p_maintain = pred.maintain_prior
        total = p_maintain + p_brake
        per_agent.append([("maintain", maintain, p_maintain / total), ("brake", brake, p_brake / total)])

    joint = [((), 1.0, ())]
    for hyps in per_agent:
        joint = [
            (trajs + (traj,), p * hp, names + (name,)) for trajs, p, names in joint for name, traj, hp in hyps
        ]
    # deterministic: by descending probability, then lexicographic label
    joint.sort(key=lambda item: (-item[1], item[2]))
    joint = joint[: pred.branching_factor]
    total = sum(p for _, p, _ in joint)
    return [(dict(zip(aids, trajs)), p / total) for trajs, p, _ in joint]


def _all_dicts_predict_stage(pred, history, ego_segment, rollouts):
    """Reference: the joint product built as one merged dict per combination."""
    t0, duration, dt = ego_segment.t0, ego_segment.duration, ego_segment.dt
    per_agent = []
    for aid in sorted(history):
        state = history[aid].end
        maintain, brake = _ref_rollouts(pred, state, t0, duration, dt, rollouts)
        p_brake = pred.brake_prior
        if _ref_ego_crosses_in_front(ego_segment, state, pred.tau_yield, prediction.YIELD_LATERAL):
            p_brake *= pred.yield_boost
        total = pred.maintain_prior + p_brake
        per_agent.append(
            (aid, [("maintain", maintain, pred.maintain_prior / total), ("brake", brake, p_brake / total)])
        )
    joint = [({}, 1.0, ())]
    for aid, hyps in per_agent:
        joint = [
            ({**trajs, aid: traj}, p * hp, names + (name,)) for trajs, p, names in joint for name, traj, hp in hyps
        ]
    joint.sort(key=lambda item: (-item[1], item[2]))
    joint = joint[: pred.branching_factor]
    total = sum(p for _, p, _ in joint)
    return [(trajs, p / total) for trajs, p, _ in joint]


def _validate_tree(tree):
    """Reference: every expanded node's children sum to probability 1 and
    carry exactly its agents, and the root has probability 1."""
    for node in tree.nodes.values():
        kids = tree.children(node.path)
        if kids:
            total = sum(k.branch_probability for k in kids)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"children probabilities at {node.path} sum to {total}")
            agents = set(node.agent_trajectories)
            for k in kids:
                if agents != set(k.agent_trajectories):
                    raise ValueError(f"agent set changes below {node.path}")
    if abs(tree.root.branch_probability - 1.0) > 1e-12:
        raise ValueError("root probability must be 1")


class TestJointHypotheses:
    @pytest.mark.parametrize("branching", [1, 4, 64])
    def test_equal_to_the_all_dicts_product(self, two_lane_map, branching):
        """Six agents, three of them crossed by the ego segment."""
        pred = KinematicPredictor(lane_map=two_lane_map, branching_factor=branching)
        ego_seg = Trajectory(0.0, 0.1, tuple(AgentState(2.0 + 0.8 * k, 0.0, 8.0, 0.0) for k in range(21)))
        agents = {
            f"a{k}": AgentState(x, y, v, 0.0)
            for k, (x, y, v) in enumerate([(0.0, 0.0, 6.0), (5.0, 3.5, 9.0), (-8.0, 0.0, 10.0),
                                           (30.0, 3.5, 4.0), (-3.0, 1.0, 7.0), (60.0, 0.0, 0.0)])
        }
        history = {aid: Trajectory(0.0, 0.1, (state,)) for aid, state in agents.items()}
        got = pred.predict_stage(agents, ego_seg, 1, ("key",), {})
        want = _all_dicts_predict_stage(pred, history, ego_seg, {})
        lateral = prediction.YIELD_LATERAL
        crossed = sum(_ref_ego_crosses_in_front(ego_seg, s, pred.tau_yield, lateral) for s in agents.values())
        assert crossed == 3
        assert len(got) == len(want) == min(branching, 2 ** len(agents))
        for (trajs, p), (ref_trajs, ref_p) in zip(got, want):
            assert float.hex(p) == float.hex(ref_p)
            assert list(trajs.items()) == list(ref_trajs.items())

    def test_no_agents_one_empty_hypothesis(self):
        ego_seg = Trajectory(0.0, 0.1, (AgentState(0, 0, 5, 0),) * 21)
        assert KinematicPredictor().predict_stage({}, ego_seg, 1, ("key",), {}) == [({}, 1.0)]


def _straight_map():
    lanes = [
        Lane(f"S{k}", np.array([[float(x), y] for x in range(-40, 121, 20)]), 12.0) for k, y in enumerate((0.0, 3.5))
    ]
    return LaneGraph(tuple(lanes))


def _curved_map():
    """Two lanes 3.5 m apart turning left through 135 degrees around (0, 40),
    each a polyline of 18 segments."""
    lanes = []
    for k, r in enumerate((40.0, 43.5)):
        pts = [(r * math.sin(th), 40.0 - r * math.cos(th)) for th in np.linspace(0.0, 0.75 * math.pi, 19).tolist()]
        lanes.append(Lane(f"C{k}", np.array(pts), 12.0))
    return LaneGraph(tuple(lanes))


_MAPS = {"none": None, "straight": _straight_map(), "curved": _curved_map()}
# (maintain, brake, yield boost); the first three make exact ties between joint hypotheses
_PRIORS = [(0.5, 0.5, 2.0), (0.6, 0.3, 2.0), (0.5, 0.5, 1.0), (0.7, 0.3, 2.0), (0.2, 0.8, 3.0)]
_HEADINGS = st.one_of(
    st.floats(-math.pi, math.pi),
    st.sampled_from([math.pi, -math.pi, math.nextafter(-math.pi, 0.0), math.nextafter(math.pi, 0.0), 0.0]),
)
_SPEEDS = st.one_of(st.just(0.0), st.floats(0.0, 15.0))
_AGENT = st.builds(AgentState, st.floats(-30.0, 60.0), st.floats(-6.0, 40.0), _SPEEDS, _HEADINGS)


def _hex_hypotheses(hypotheses):
    """Every float of a hypothesis list as float.hex, in order."""
    return [
        (float.hex(p), [(aid, t.t0, t.dt, [tuple(map(float.hex, (s.x, s.y, s.v, s.psi))) for s in t.samples])
                        for aid, t in trajs.items()])
        for trajs, p in hypotheses
    ]


class TestMatchesReference:
    @given(
        agents=st.lists(_AGENT, min_size=0, max_size=6),
        map_name=st.sampled_from(sorted(_MAPS)),
        priors=st.one_of(
            st.sampled_from(_PRIORS),
            st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(1.0, 3.0)),
        ),
        ego=st.tuples(_AGENT, st.sampled_from([1, 11, 21]), st.sampled_from([0.0, 1.0, 2.5])),
        b_decel=st.sampled_from([4.0, 2.5, 9.0]),
        branching=st.integers(1, 65),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_hypotheses_as_the_reference(self, agents, map_name, priors, ego, b_decel, branching, data):
        """Equal probabilities by float.hex and equal trajectories, at every
        branching factor from 1 to 2^N + 1."""
        branching = min(branching, 2 ** len(agents) + 1)
        maintain, brake, boost = priors
        pred = KinematicPredictor(
            lane_map=_MAPS[map_name], branching_factor=branching, maintain_prior=maintain,
            brake_prior=brake, b_decel=b_decel, yield_boost=boost,
        )
        start, n, t0 = ego
        # the ego moves at its speed along its heading; some agents may sit in its path
        step_x, step_y = 0.1 * start.v * math.cos(start.psi), 0.1 * start.v * math.sin(start.psi)
        ego_seg = Trajectory(t0, 0.1, tuple(
            AgentState(start.x + k * step_x, start.y + k * step_y, start.v, start.psi) for k in range(n)
        ))
        if agents and data.draw(st.booleans()):
            k = data.draw(st.integers(0, n - 1))
            agents[0] = AgentState(ego_seg.samples[k].x - 2.0, ego_seg.samples[k].y, agents[0].v, 0.0)
        states = {f"a{k}": state for k, state in enumerate(agents)}
        history = {aid: Trajectory(0.0, 0.1, (state,)) for aid, state in states.items()}
        rollouts = {}
        got = pred.predict_stage(states, ego_seg, 1, ("key",), rollouts)
        want = _ref_predict_stage(pred, history, ego_seg, {})
        assert len(got) == len(want) == min(branching, 2 ** len(agents))
        assert _hex_hypotheses(got) == _hex_hypotheses(want)
        for (trajs, p), (ref_trajs, ref_p) in zip(got, want):
            assert float.hex(p) == float.hex(ref_p)
            assert list(trajs.items()) == list(ref_trajs.items())
        # a second call reads the rollouts from the table
        assert _hex_hypotheses(pred.predict_stage(states, ego_seg, 1, ("key",), rollouts)) == _hex_hypotheses(want)


class TestAdversarialPredictor:
    def test_future_peeking_predictor_caught(self):
        assert run_adversarial_consistency_case()

    def test_leak_is_what_validation_catches(self):
        """Assembled mode by mode, the kinematic predictor's trees equal the
        one-walk ensemble's and validate; bound to each mode's end, the
        peeking predictor's trees differ from stage 1 on."""
        tree, schedule = make_shared_prefix_tree()
        scene = Scene(agents={"a0": AgentState(12.0, 0.0, 4.0, 0.0)})
        honest = predict_per_mode(lambda mode: KinematicPredictor(branching_factor=2), scene, tree, schedule, 2, 3)
        assert honest == predict_ensemble(KinematicPredictor(branching_factor=2), scene, tree, schedule, 2, 3)
        validate_causal_consistency(honest)
        leaking = predict_per_mode(
            lambda mode: FuturePeekingPredictor(branching_factor=2, future_end=mode.ego_segments[-1].end),
            scene, tree, schedule, 2, 3,
        )
        with pytest.raises(CausalConsistencyViolation) as err:
            validate_causal_consistency(leaking)
        assert (err.value.stage, err.value.mode_a, err.value.mode_b) == (1, 0, 1)

    def test_peeking_predictor_needs_its_leak(self):
        with pytest.raises(TypeError):
            FuturePeekingPredictor(branching_factor=2)


class TestPredictorFailure:
    def test_failure_carries_stage_context(self):
        class Broken(KinematicPredictor):
            def predict_stage(self, states, ego_segment, stage, rng_key, rollouts):
                raise RuntimeError("model exploded")

        tree, schedule = make_shared_prefix_tree()
        scene = Scene(agents={"a0": AgentState(12.0, 0.0, 4.0, 0.0)})
        with pytest.raises(PredictorFailure) as err:
            predict_ensemble(Broken(branching_factor=2), scene, tree, schedule, 2, 0)
        assert err.value.stage == 1

    # each turns the kinematic predictor's two hypotheses for agent a0 into a
    # bad output; the second item is a piece of the expected reason
    BAD_OUTPUTS = {
        "no hypotheses": (lambda hyps: [], "0 hypotheses"),
        "probabilities 1.5 and -0.5": (lambda hyps: [(hyps[0][0], 1.5), (hyps[1][0], -0.5)], "not a distribution"),
        "NaN probabilities": (lambda hyps: [(trajs, math.nan) for trajs, _ in hyps], "not a distribution"),
        "agent a0 missing": (lambda hyps: [({}, p) for _, p in hyps], "agents ['a0'] missing"),
        "extra agent": (lambda hyps: [({**trajs, "ghost": trajs["a0"]}, p) for trajs, p in hyps], "['ghost'] extra"),
        "one NaN of two": (lambda hyps: [(hyps[0][0], 1.0), (hyps[1][0], math.nan)], "not a distribution"),
        "sum 0.9": (lambda hyps: [(hyps[0][0], 0.6), (hyps[1][0], 0.3)], "not a distribution"),
        "three of branching 2": (lambda hyps: hyps + hyps[:1], "3 hypotheses, not 1 to 2"),
    }

    @pytest.mark.parametrize("what", sorted(BAD_OUTPUTS))
    def test_bad_output_raises_where_it_arrives(self, what):
        """Bad hypotheses from the second expansion, at stage 2 below node (1,),
        raise PredictorFailure naming that node."""
        change, reason = self.BAD_OUTPUTS[what]

        class Bad(KinematicPredictor):
            def predict_stage(self, states, ego_segment, stage, rng_key, rollouts):
                hyps = super().predict_stage(states, ego_segment, stage, rng_key, rollouts)
                return change(hyps) if rng_key[1:3] == (2, (1,)) else hyps

        tree, schedule = make_shared_prefix_tree()
        scene = Scene(agents={"a0": AgentState(12.0, 0.0, 4.0, 0.0)})
        with pytest.raises(PredictorFailure) as err:
            predict_ensemble(Bad(branching_factor=2), scene, tree, schedule, 2, 0)
        assert (err.value.stage, err.value.node_path) == (2, (1,))
        assert reason in str(err.value.cause) and err.value.__cause__ is None

    def test_good_output_passes_the_checks(self):
        """Exact-sum outputs of the kinematic predictor are accepted; each
        tree passes the reference validation."""
        tree, schedule = make_shared_prefix_tree()
        scene = Scene(agents={"a0": AgentState(12.0, 0.0, 4.0, 0.0)})
        ensemble = predict_ensemble(KinematicPredictor(branching_factor=2), scene, tree, schedule, 2, 0)
        for scen in ensemble.trees.values():
            _validate_tree(scen)
            assert all(n.agent_trajectories.keys() == {"a0"} for n in scen.nodes.values())


class TestStageIndex:
    def test_stage_nodes_indexed_once_and_immutable(self):
        tree = _structural_tree(2, 2)
        scene = Scene(agents={"a": AgentState(10.0, 0.0, 5.0, 0.0)})
        ensemble = predict_ensemble(KinematicPredictor(branching_factor=2), scene, tree, tree.schedule, 2, 0)
        scen = ensemble.trees[ensemble.modes[0].mode_id]
        for stage in range(scen.max_stage + 1):
            nodes = scen.stage_nodes(stage)
            assert isinstance(nodes, tuple)
            assert nodes is scen.stage_nodes(stage)
            want = sorted((n for n in scen.nodes.values() if n.stage == stage), key=lambda n: n.path)
            assert list(nodes) == want
        assert scen.stage_nodes(scen.max_stage + 1) == ()

    def test_stage_nodes_in_path_order_whatever_the_insertion_order(self):
        paths = [(1, 0), (), (1,), (0, 1), (0,), (0, 0)]
        nodes = {p: ScenarioNode(p, len(p), {}, 1.0) for p in paths}
        tree = ScenarioTree(nodes=nodes, schedule=StageSchedule.uniform(2))
        assert [n.path for n in tree.stage_nodes(1)] == [(0,), (1,)]
        assert [n.path for n in tree.stage_nodes(2)] == [(0, 0), (0, 1), (1, 0)]
        nodes.clear()  # the tree keeps its own copy
        assert len(tree.nodes) == 6 and len(tree.stage_nodes(2)) == 3


class TestCausalConsistencyCorruptions:
    """Hand-corrupted copies of a true 3-stage ensemble (8 modes)."""

    @staticmethod
    def _ensemble():
        tree = _structural_tree(3, 2)
        scene = Scene(agents={"a": AgentState(10.0, 0.0, 5.0, 0.0), "b": AgentState(20.0, 3.0, 4.0, 0.0)})
        return predict_ensemble(KinematicPredictor(branching_factor=2), scene, tree, tree.schedule, 2, 0)

    @staticmethod
    def _corrupt(ensemble, mode_id, path, change):
        """Copy with change(node) replacing one node of one mode's tree; None
        drops the node and its descendants."""
        old = ensemble.trees[mode_id]
        new = change(old.nodes[path])
        if new is None:
            nodes = {p: n for p, n in old.nodes.items() if p[: len(path)] != path}
        else:
            nodes = {**old.nodes, path: new}
        trees = {**ensemble.trees, mode_id: ScenarioTree(nodes=nodes, schedule=old.schedule)}
        return ECPredictionEnsemble(modes=ensemble.modes, trees=trees)

    @staticmethod
    def _move_sample(node):
        traj = node.agent_trajectories["a"]
        s = traj.samples[-1]
        samples = traj.samples[:-1] + (AgentState(s.x + 1e-9, s.y, s.v, s.psi),)
        return replace(node, agent_trajectories={**node.agent_trajectories, "a": replace(traj, samples=samples)})

    @staticmethod
    def _shift_t0(node):
        traj = node.agent_trajectories["b"]
        return replace(node, agent_trajectories={**node.agent_trajectories, "b": replace(traj, t0=traj.t0 + 0.1)})

    @staticmethod
    def _extra_agent(node):
        return replace(node, agent_trajectories={**node.agent_trajectories, "c": node.agent_trajectories["a"]})

    CHANGES = {
        "sample moved 1e-9 m": _move_sample.__func__,
        "probability changed 1e-12": lambda n: replace(n, branch_probability=n.branch_probability + 1e-12),
        "missing node": lambda n: None,
        "extra agent": _extra_agent.__func__,
        "shifted t0": _shift_t0.__func__,
    }

    def test_true_ensemble_passes(self):
        validate_causal_consistency(self._ensemble())

    @pytest.mark.parametrize("what", sorted(CHANGES))
    @pytest.mark.parametrize("mode_id, path", [(3, ()), (1, (1,)), (3, (0,)), (1, (0, 1)), (3, (1, 1)), (6, (0,))])
    def test_corruption_raises_at_its_stage(self, what, mode_id, path):
        ens = self._ensemble()
        stage = len(path)
        bad = self._corrupt(ens, mode_id, path, self.CHANGES[what])
        with pytest.raises(CausalConsistencyViolation) as err:
            validate_causal_consistency(bad)
        exc = err.value
        assert exc.stage == stage
        assert mode_id in (exc.mode_a, exc.mode_b) and exc.mode_a != exc.mode_b
        path_a = bad.modes[exc.mode_a].ego_path
        path_b = bad.modes[exc.mode_b].ego_path
        assert path_a[: stage + 1] == path_b[: stage + 1]

    def test_stages_past_the_shared_prefix_are_not_compared(self):
        """Modes 0 and 1 share the ego path only through stage 2; their
        stage-3 nodes may differ."""
        ens = self._ensemble()
        assert ens.modes[0].ego_path[:3] == ens.modes[1].ego_path[:3]
        assert ens.modes[0].ego_path[3] != ens.modes[1].ego_path[3]
        validate_causal_consistency(self._corrupt(ens, 1, (0, 0, 0), self._move_sample))


class TestModeIndex:
    def test_index_matches_the_scan_over_modes(self):
        tree = _structural_tree(3, 2)
        ens = TestCausalConsistencyCorruptions._ensemble()
        for node in tree.nodes:
            scan = next(m for m in ens.modes if node.id in m.ego_path)
            assert ens.mode_for_ego_node(node.id) is scan
            assert ens.tree_for_ego_node(node.id) is ens.trees[scan.mode_id]
        with pytest.raises(KeyError):
            ens.mode_for_ego_node(len(tree.nodes))


class TestScenarioTreeLookup:
    def test_children_of_missing_path_raise(self):
        nodes = {p: ScenarioNode(p, len(p), {}, 0.5 if p else 1.0) for p in [(), (0,), (1,)]}
        tree = ScenarioTree(nodes=nodes, schedule=StageSchedule.uniform(1))
        assert [n.path for n in tree.children(())] == [(0,), (1,)]
        assert tree.children((1,)) == []
        with pytest.raises(UnknownNode):
            tree.children((2,))
        with pytest.raises(UnknownNode):
            tree.children((0, 0))

    def test_plain_tree_is_its_own_tree_for_every_ego_node(self):
        nodes = {(): ScenarioNode((), 0, {}, 1.0)}
        tree = ScenarioTree(nodes=nodes, schedule=StageSchedule.uniform(1))
        assert tree.tree_for_ego_node(0) is tree and tree.tree_for_ego_node(17) is tree

    def test_ensemble_max_stage(self):
        ens = TestCausalConsistencyCorruptions._ensemble()
        assert ens.max_stage == 3
