"""Trajectory tree sampling: splines, feasibility, schedules, tree growth."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treeplan import (
    AgentState,
    DynamicsLimits,
    Lane,
    LaneGraph,
    SamplerConfig,
    StageSchedule,
    UnicycleInput,
    fit_spline,
    grow_tree,
    integrate_unicycle,
    project_to_lane,
)
from treeplan import sampler
from treeplan.costs import CostWeights, build_cost_tensor_ec
from treeplan.dp import brute_force_value, solve_policy
from treeplan.errors import DegenerateDuration
from treeplan.prediction import KinematicPredictor, Scene, predict_ensemble
from treeplan.sampler import TreeNode, TrajectoryTree, sample_terminals, segment_feasible, spline_to_trajectory
from treeplan.verify import spline_residual
from treeplan.world import wrap_angle


class TestStageSchedule:
    def test_uniform_layout(self):
        sch = StageSchedule.uniform(2, stage_duration=2.0)
        assert sch.stage_durations == (0.0, 2.0, 2.0)
        assert sch.num_stages == 2
        assert sch.horizon == pytest.approx(4.0)
        assert sch.stage_start(2) == pytest.approx(2.0)

    def test_rejects_nonpositive_later_stage(self):
        with pytest.raises(ValueError):
            StageSchedule((0.0, 0.0), 0.1)

    def test_rejects_non_multiple_of_dt(self):
        with pytest.raises(ValueError):
            StageSchedule((0.0, 1.05), 0.1)

    @pytest.mark.parametrize("root", [1.0, 0.1])
    def test_rejects_nonzero_root_duration(self, root):
        """The root stage is the current state; predictions start at t = 0."""
        with pytest.raises(ValueError, match="root"):
            StageSchedule((root, 2.0, 2.0), 0.1)

    def test_rejects_root_stage_alone(self):
        with pytest.raises(ValueError):
            StageSchedule((0.0,), 0.1)


class TestSpline:
    def test_smoothstep_midpoint(self):
        """The y-cubic from (0,0,10,0) to (20,5,10,0) over T=2 is the
        smoothstep 5(3(t/2)^2 - 2(t/2)^3); its midpoint is exactly 2.5."""
        sp = fit_spline(AgentState(0, 0, 10, 0), AgentState(20, 5, 10, 0), 2.0)
        _, y = sp.position(1.0)
        assert abs(float(y) - 2.5) < 1e-12

    def test_rejects_degenerate_duration(self):
        with pytest.raises(DegenerateDuration):
            fit_spline(AgentState(0, 0, 1, 0), AgentState(1, 0, 1, 0), 0.01, dt=0.1)

    @given(
        x0=st.floats(-50, 50), y0=st.floats(-50, 50),
        v0=st.floats(0, 20), p0=st.floats(-math.pi, math.pi),
        x1=st.floats(-50, 50), y1=st.floats(-50, 50),
        v1=st.floats(0, 20), p1=st.floats(-math.pi, math.pi),
        T=st.floats(0.5, 4.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_boundary_conditions_met(self, x0, y0, v0, p0, x1, y1, v1, p1, T):
        start = AgentState(x0, y0, v0, p0)
        terminal = AgentState(x1, y1, v1, p1)
        assert spline_residual(start, terminal, T) < 1e-9

    def test_sampled_trajectory_pins_endpoints(self):
        start = AgentState(0, 0, 10, 0)
        terminal = AgentState(18.0, 1.0, 9.0, 0.1)
        sp = fit_spline(start, terminal, 2.0)
        traj = spline_to_trajectory(sp, start, terminal, 0.1, 0.0)
        assert traj.samples[0] == start
        assert traj.samples[-1] == terminal
        assert len(traj.samples) == 21


class TestFeasibility:
    def test_gentle_segment_accepted(self):
        sp = fit_spline(AgentState(0, 0, 10, 0), AgentState(20, 0.5, 10, 0), 2.0)
        assert segment_feasible(sp, DynamicsLimits(), 0.1)

    def test_over_speed_rejected(self):
        sp = fit_spline(AgentState(0, 0, 10, 0), AgentState(60, 0, 10, 0), 2.0)
        assert not segment_feasible(sp, DynamicsLimits(v_max=20.0), 0.1)

    def test_tight_curvature_rejected(self):
        sp = fit_spline(AgentState(0, 0, 8, 0), AgentState(3, 6, 8, math.pi / 2), 1.0)
        assert not segment_feasible(sp, DynamicsLimits(kappa_max=0.3), 0.1)

    def test_acceleration_above_a_max_rejected(self):
        """x(t) = 5t + 5t^2 over 1 s: a straight line at 10 m/s^2."""
        sp = fit_spline(AgentState(0, 0, 5, 0), AgentState(10, 0, 15, 0), 1.0)
        assert sp.coeffs_x == (0.0, 5.0, 5.0, 0.0)
        assert not segment_feasible(sp, DynamicsLimits(a_max=4.0), 0.1)
        assert segment_feasible(sp, DynamicsLimits(a_max=10.5), 0.1)

    def test_acceleration_below_a_min_rejected(self):
        """x(t) = 15t - 5t^2 over 1 s: a straight line at -10 m/s^2."""
        sp = fit_spline(AgentState(0, 0, 15, 0), AgentState(10, 0, 5, 0), 1.0)
        assert sp.coeffs_x == (0.0, 15.0, -5.0, 0.0)
        assert not segment_feasible(sp, DynamicsLimits(a_min=-6.0), 0.1)
        assert segment_feasible(sp, DynamicsLimits(a_min=-10.5), 0.1)

    def test_partly_stationary_segment_judged_on_moving_samples(self):
        """x(t) = c t^2 from rest: the first sample has speed 0 and is left
        out of the acceleration and curvature tests; the rest move at 2c m/s^2."""
        gentle = fit_spline(AgentState(0, 0, 0, 0), AgentState(4, 0, 4, 0), 2.0)
        assert gentle.coeffs_x == (0.0, 0.0, 1.0, 0.0)
        assert segment_feasible(gentle, DynamicsLimits(), 0.1)
        hard = fit_spline(AgentState(0, 0, 0, 0), AgentState(12, 0, 12, 0), 2.0)
        assert hard.coeffs_x == (0.0, 0.0, 3.0, 0.0)
        assert not segment_feasible(hard, DynamicsLimits(a_max=4.0), 0.1)
        assert segment_feasible(hard, DynamicsLimits(a_max=8.0), 0.1)

    def test_stationary_segment_accepted(self):
        sp = fit_spline(AgentState(0, 0, 0, 0), AgentState(0, 0, 0, 0), 2.0)
        assert segment_feasible(sp, DynamicsLimits(), 0.1)

    def test_cusp_rejected(self):
        """x(t) = 1.5 t - 1.5 t^2 + 0.5 t^3, speed 1.5 (t - 1)^2: straight, at
        most 1.5 m/s and 3 m/s^2, but it stops at t = 1 and drives on."""
        sp = fit_spline(AgentState(0, 0, 1.5, 0), AgentState(1.0, 0, 1.5, 0), 2.0)
        assert sp.coeffs_x == (0.0, 1.5, -1.5, 0.5)
        assert not segment_feasible(sp, DynamicsLimits(), 0.1)
        # the same stop with a start speed of at most 0.25 m/s is no cusp
        slow = fit_spline(AgentState(0, 0, 0.2, 0), AgentState(0.4 / 3, 0, 0.2, 0), 2.0)
        assert segment_feasible(slow, DynamicsLimits(), 0.1)


def _reference_feasible(spline, limits, dt, eps=1e-6):
    """Reference: the masked-array feasibility filter, every rule on every
    sample through np.any."""
    n = max(int(round(spline.duration / dt)), 1)
    ts = np.arange(n + 1) * dt
    vx, vy = spline.velocity(ts)
    ax, ay = spline.acceleration(ts)
    speed = np.hypot(vx, vy)
    if np.any(speed > limits.v_max + eps):
        return False
    moving = speed > 0.1
    if np.any(moving):
        a_lon = (vx[moving] * ax[moving] + vy[moving] * ay[moving]) / speed[moving]
        if np.any(a_lon > limits.a_max + eps) or np.any(a_lon < limits.a_min - eps):
            return False
        kappa = (vx[moving] * ay[moving] - vy[moving] * ax[moving]) / speed[moving] ** 3
        if np.any(np.abs(kappa) > limits.kappa_max + eps):
            return False
    if speed[0] > 0.25 and speed[-1] > 0.25 and np.any(speed[1:-1] < 1e-3):
        return False
    return True


_speeds = st.one_of(st.just(0.0), st.floats(0.0, 0.3), st.floats(0.0, 22.0))


class TestFeasibilityReference:
    @given(
        x1=st.floats(-40, 40), y1=st.floats(-40, 40),
        v0=_speeds, p0=st.floats(-math.pi, math.pi), v1=_speeds, p1=st.floats(-math.pi, math.pi),
        steps=st.one_of(st.just(1), st.integers(1, 40)),
        a_max=st.floats(0.5, 8.0), a_min=st.floats(-10.0, -0.5), kappa_max=st.floats(0.05, 2.0),
    )
    @settings(max_examples=500, deadline=None)
    def test_same_decision_as_reference(self, x1, y1, v0, p0, v1, p1, steps, a_max, a_min, kappa_max):
        dt = 0.1
        sp = fit_spline(AgentState(0, 0, v0, p0), AgentState(x1, y1, v1, p1), steps * dt, dt)
        limits = DynamicsLimits(a_max=a_max, a_min=a_min, kappa_max=kappa_max)
        assert segment_feasible(sp, limits, dt) == _reference_feasible(sp, limits, dt)


class TestSampleTerminals:
    def test_lane_targets_within_band(self):
        lane = Lane("L", np.array([[0.0, 0.0], [200.0, 0.0]]), 12.0)
        lane_map = LaneGraph((lane,), (np.array([[0, -3], [200, -3], [200, 3], [0, 3]], dtype=float),))
        cfg = SamplerConfig()
        terms = sample_terminals(AgentState(10.0, 0.0, 10.0, 0.0), lane_map, 2.0, cfg)
        band = max(abs(o) for o in cfg.lateral_offsets)
        lane_targets = [t for t in terms if abs(t.y) <= band + 1e-6]
        assert terms
        for t in lane_targets:
            _, lat, _ = project_to_lane((t.x, t.y), lane)
            assert abs(lat) <= band + 1e-6

    @pytest.mark.parametrize("empty", ["speed_grid", "lateral_offsets"])
    def test_no_lane_projection_when_a_grid_is_empty(self, monkeypatch, two_lane_map, empty):
        """A lane target needs a target speed and an offset; without either
        no lane is projected and the candidates are the rollout endpoints."""
        calls = []
        real = sampler.project_to_lane

        def counted(point, lane):
            calls.append(point)
            return real(point, lane)

        monkeypatch.setattr(sampler, "project_to_lane", counted)
        start = AgentState(10.0, 0.5, 8.0, 0.0)
        full = SamplerConfig()
        assert len(sample_terminals(start, two_lane_map, 2.0, full)) > len(sample_terminals(start, None, 2.0, full))
        assert len(calls) == len(two_lane_map.lanes)

        calls.clear()
        cfg = SamplerConfig(**{empty: ()})
        got = sample_terminals(start, two_lane_map, 2.0, cfg)
        assert calls == []
        assert got == sample_terminals(start, None, 2.0, cfg)


def _rollout_end(state, u, duration, dt, limits):
    """Reference: the end of a constant-input rollout stepped once per dt."""
    for _ in range(int(round(duration / dt))):
        state = integrate_unicycle(state, u, dt, limits)
    return state


class TestRolloutEndpoints:
    @given(
        x=st.floats(-50, 50), y=st.floats(-50, 50),
        v=st.floats(0, 20), psi=st.floats(-math.pi, math.pi),
        a=st.floats(-6.0, 4.0), omega=st.floats(-1.0, 1.0),
        k=st.integers(1, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_endpoint_matches_the_per_step_rollout(self, x, y, v, psi, a, omega, k):
        """Bit-equal while the heading stays in (-pi, pi] and the stage
        divides into dt substeps exactly; the reference wraps the heading at
        every step, so a crossing differs in the last bits only."""
        limits, dt, duration = DynamicsLimits(), 0.1, k / 10
        cfg = SamplerConfig(
            accel_grid=(a,), yaw_rate_grid=(omega,), speed_grid=(), lateral_offsets=(), limits=limits
        )
        start = AgentState(x, y, v, psi)
        (got,) = sample_terminals(start, None, duration, cfg)
        want = _rollout_end(start, UnicycleInput(a, omega), duration, dt, limits)
        if duration / k == dt and abs(start.psi + omega * duration) < math.pi - 1e-9:
            assert got == want
        else:
            assert abs(got.x - want.x) <= 1e-12 and abs(got.y - want.y) <= 1e-12
            assert abs(got.v - want.v) <= 1e-12
            assert abs(wrap_angle(got.psi - want.psi)) <= 1e-12


class TestGrowTree:
    def test_paper_scale_shape(self):
        """2 stages, max 4 children: every non-leaf has at most 4 children
        and there are at most 16 leaves."""
        sch = StageSchedule.uniform(2)
        tree = grow_tree(AgentState(0, 0, 10, 0), None, sch, SamplerConfig(max_children=4), seed=11)
        assert tree.max_stage == 2
        for node in tree.stage_nodes(0) + tree.stage_nodes(1):
            assert len(tree.children(node.id)) <= 4
        assert len(tree.leaves()) <= 16

    def test_deterministic_in_seed(self):
        sch = StageSchedule.uniform(2)
        cfg = SamplerConfig(max_children=3)
        a = grow_tree(AgentState(0, 0, 10, 0), None, sch, cfg, seed=3)
        b = grow_tree(AgentState(0, 0, 10, 0), None, sch, cfg, seed=3)
        assert len(a.nodes) == len(b.nodes)
        for na, nb in zip(a.nodes, b.nodes):
            assert na.id == nb.id and na.parent_id == nb.parent_id
            assert na.segment.samples == nb.segment.samples

    def test_different_seeds_differ(self):
        sch = StageSchedule.uniform(2)
        cfg = SamplerConfig(max_children=3)
        a = grow_tree(AgentState(0, 0, 10, 0), None, sch, cfg, seed=3)
        b = grow_tree(AgentState(0, 0, 10, 0), None, sch, cfg, seed=4)
        same = len(a.nodes) == len(b.nodes) and all(
            na.segment.samples == nb.segment.samples for na, nb in zip(a.nodes, b.nodes)
        )
        assert not same

    def test_segments_chain_continuously(self):
        sch = StageSchedule.uniform(2)
        tree = grow_tree(AgentState(0, 0, 10, 0), None, sch, SamplerConfig(max_children=4), seed=7)
        tree.validate()
        for node in tree.nodes:
            if node.parent_id is None:
                continue
            pe = tree.node(node.parent_id).segment.end
            cs = node.segment.start
            assert math.hypot(pe.x - cs.x, pe.y - cs.y) < 1e-9

    def test_root_is_single_sample(self):
        sch = StageSchedule.uniform(2)
        tree = grow_tree(AgentState(0, 0, 10, 0), None, sch, SamplerConfig(), seed=0)
        assert len(tree.node(0).segment.samples) == 1

    def test_segments_respect_limits(self):
        limits = DynamicsLimits()
        sch = StageSchedule.uniform(2)
        tree = grow_tree(AgentState(0, 0, 10, 0), None, sch, SamplerConfig(limits=limits), seed=5)
        for node in tree.nodes:
            for s in node.segment.samples:
                assert 0.0 <= s.v <= limits.v_max + 1e-9


class TestTreeStageIndex:
    def test_stage_lookups_keep_node_order_and_lists(self):
        """Nodes listed out of id and stage order come back in `nodes` order."""
        spec = [(0, 0, None), (2, 1, 0), (4, 2, 2), (1, 1, 0), (3, 2, 1), (5, 2, 2)]
        nodes = tuple(TreeNode(id=i, stage=s, parent_id=p, segment=None) for i, s, p in spec)
        tree = TrajectoryTree(nodes=nodes, schedule=StageSchedule.uniform(2))
        assert tree.max_stage == 2
        for stage in range(4):
            got = tree.stage_nodes(stage)
            assert isinstance(got, list)
            assert got == [n for n in nodes if n.stage == stage]
        assert [n.id for n in tree.stage_nodes(1)] == [2, 1]
        leaves = tree.leaves()
        assert isinstance(leaves, list) and [n.id for n in leaves] == [4, 3, 5]
        leaves.clear()  # callers get their own list
        tree.stage_nodes(1).append(nodes[0])
        assert [n.id for n in tree.leaves()] == [4, 3, 5]
        assert [n.id for n in tree.stage_nodes(1)] == [2, 1]


class TestNoDeadEnds:
    """A node whose children all fail feasibility is dropped with its
    subtree, so the policy has a choice at every pair below the last stage."""

    SAMPLER = SamplerConfig(
        accel_grid=(2.0, 4.0), yaw_rate_grid=(-0.9, 0.0), speed_grid=(), lateral_offsets=(), max_children=3,
        limits=DynamicsLimits(v_max=15.486833383269612, kappa_max=0.19797569580352764),
    )

    def test_dead_end_stage_1_node_is_dropped(self):
        schedule = StageSchedule.uniform(2, 2.0)
        tree = grow_tree(AgentState(0.0, 0.0, 6.806477147613328, 0.0), None, schedule, self.SAMPLER, 84)
        assert not tree.truncated and tree.max_stage == 2
        assert [n.id for n in tree.nodes] == [0, 1, 3]  # node 2 had no feasible child; ids stay
        for n in tree.nodes:
            assert n.stage == tree.max_stage or tree.children(n.id)

        scene = Scene(agents={"a0": AgentState(30.0, 0.0, 5.0, 0.0)})
        ensemble = predict_ensemble(KinematicPredictor(branching_factor=2), scene, tree, schedule, 2, 84)
        costs = build_cost_tensor_ec(tree, ensemble, None, CostWeights())
        values, policy = solve_policy(tree, ensemble, costs)
        bf_value, _ = brute_force_value(tree, ensemble, costs)
        assert bf_value == values.V[(0, ())]
        assert None not in policy.pi.values()

    def test_every_kept_node_reaches_the_last_stage(self):
        rng = np.random.default_rng(2)
        for _ in range(200):  # four of these draws grow a node with no feasible child
            cfg = SamplerConfig(
                accel_grid=tuple(rng.choice([-4.0, -2.0, 0.0, 2.0, 4.0], size=2, replace=False)),
                yaw_rate_grid=tuple(rng.choice([-0.9, -0.3, 0.0, 0.3, 0.9], size=2, replace=False)),
                speed_grid=(), lateral_offsets=(), max_children=int(rng.integers(1, 4)),
                limits=DynamicsLimits(v_max=float(rng.uniform(8.0, 20.0)), kappa_max=float(rng.uniform(0.05, 0.3))),
            )
            root = AgentState(0.0, 0.0, float(rng.uniform(2.0, 12.0)), 0.0)
            schedule = StageSchedule.uniform(int(rng.integers(1, 4)), 2.0)
            tree = grow_tree(root, None, schedule, cfg, int(rng.integers(100)))
            for n in tree.nodes:
                assert n.stage == tree.max_stage or tree.children(n.id)
