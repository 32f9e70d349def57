"""Geometry and kinematics: integration accuracy, collision, lane projection."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treeplan import (
    AgentState,
    DynamicsLimits,
    Footprint,
    Lane,
    LaneGraph,
    Trajectory,
    UnicycleInput,
    check_collision,
    integrate_unicycle,
    is_offroad,
    project_to_lane,
)
from treeplan.config import load_scenario
from treeplan.world import (
    footprint_corners,
    integrate_unicycle_grid,
    lane_point_at,
    lane_points_at_batch,
    obb_clearance,
    point_in_polygon,
    project_to_lane_batch,
    wrap_angle,
    wrap_angles,
)


class TestIntegrateUnicycle:
    def test_straight_constant_speed(self):
        s = integrate_unicycle(AgentState(0, 0, 10, 0), UnicycleInput(0, 0), 1.0)
        assert s.x == pytest.approx(10.0, abs=1e-12)
        assert s.y == pytest.approx(0.0, abs=1e-12)

    def test_constant_acceleration(self):
        s = integrate_unicycle(AgentState(0, 0, 10, 0), UnicycleInput(2, 0), 1.0)
        assert s.v == pytest.approx(12.0, abs=1e-9)
        assert s.x == pytest.approx(11.0, abs=1e-9)

    def test_constant_turn_matches_arc(self):
        """Closed-form circular arc x = (v/w) sin(wt), y = (v/w)(1 - cos(wt))."""
        v, w = 10.0, 0.5
        s = integrate_unicycle(AgentState(0, 0, v, 0), UnicycleInput(0, w), 1.0)
        assert abs(s.x - (v / w) * math.sin(w)) < 1e-6
        assert abs(s.y - (v / w) * (1 - math.cos(w))) < 1e-6
        assert s.psi == pytest.approx(w, abs=1e-9)

    def test_speed_clamped_at_zero(self):
        s = integrate_unicycle(AgentState(0, 0, 1.0, 0), UnicycleInput(-6, 0), 1.0)
        assert s.v == 0.0

    def test_speed_clamped_at_vmax(self):
        lim = DynamicsLimits(v_max=12.0)
        s = integrate_unicycle(AgentState(0, 0, 10, 0), UnicycleInput(4, 0), 1.0, lim)
        assert s.v == pytest.approx(12.0)

    @given(
        v=st.floats(0.0, 20.0),
        a=st.floats(-4.0, 4.0),
        w=st.floats(-1.0, 1.0),
        psi=st.floats(-3.1, 3.1),
    )
    @settings(max_examples=50, deadline=None)
    def test_heading_advances_linearly(self, v, a, w, psi):
        s = integrate_unicycle(AgentState(0, 0, v, psi), UnicycleInput(a, w), 0.5)
        assert abs(wrap_angle(s.psi - (psi + 0.5 * w))) < 1e-9


def _ref_rk4(state, u, dt, limits):
    """Four-stage RK4 on the state vector, every stage evaluated."""
    def deriv(s):
        return np.array([s[2] * math.cos(s[3]), s[2] * math.sin(s[3]), u.a, u.omega])

    n_sub = max(1, int(math.ceil(dt / 0.1 - 1e-12)))
    h = dt / n_sub
    s = np.array([state.x, state.y, state.v, state.psi])
    for _ in range(n_sub):
        k1 = deriv(s)
        k2 = deriv(s + 0.5 * h * k1)
        k3 = deriv(s + 0.5 * h * k2)
        k4 = deriv(s + h * k3)
        s = s + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        s[2] = min(max(s[2], 0.0), limits.v_max)
    return AgentState(s[0], s[1], s[2], wrap_angle(s[3]))


class TestIntegrateUnicycleReference:
    @given(
        st.floats(-100, 100), st.floats(-100, 100), st.floats(0, 25), st.floats(-math.pi, math.pi),
        st.floats(-8, 6), st.floats(-1.5, 1.5), st.floats(0.01, 1.5), st.floats(1.0, 30.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_vector_rk4(self, x, y, v, psi, a, w, dt, v_max):
        state, u, lim = AgentState(x, y, v, psi), UnicycleInput(a, w), DynamicsLimits(v_max=v_max)
        got = integrate_unicycle(state, u, dt, lim)
        want = _ref_rk4(state, u, dt, lim)
        assert (got.x, got.y, got.v, got.psi) == (want.x, want.y, want.v, want.psi)


class TestIntegrateUnicycleGrid:
    @staticmethod
    def assert_cells_equal(state, accels, yaw_rates, dt, limits):
        grid = integrate_unicycle_grid(state, accels, yaw_rates, dt, limits)
        assert len(grid) == len(accels)
        for a, row in zip(accels, grid):
            assert len(row) == len(yaw_rates)
            for w, got in zip(yaw_rates, row):
                assert got == integrate_unicycle(state, UnicycleInput(a, w), dt, limits)

    @pytest.mark.parametrize(
        "v, accels, v_max",
        [
            (1.0, (-6.0, -4.0, -0.5, 0.0), 20.0),  # braking to 0: the mid-step speed goes negative
            (10.0, (-2.0, 0.0, 2.0, 4.0), 12.0),  # accelerating into v_max
            (15.0, (-4.0, 0.0, 3.0), 12.0),  # starting above v_max
        ],
    )
    @pytest.mark.parametrize("dt", [0.1, 0.25, 2.0])
    def test_speed_cases_bit_equal(self, v, accels, v_max, dt):
        limits = DynamicsLimits(v_max=v_max)
        state = AgentState(3.0, -2.0, v, 2.9)
        self.assert_cells_equal(state, accels, (-1.0, -0.3, 0.0, 0.1, 0.7), dt, limits)

    def test_speed_cases_reached(self):
        """The parametrised cases really stop, clamp at v_max and start above it."""
        limits = DynamicsLimits(v_max=12.0)
        (stop,), (clamp,), (above,) = (
            integrate_unicycle_grid(AgentState(0, 0, v, 0), (a,), (0.0,), 2.0, limits)
            for v, a in ((1.0, -4.0), (10.0, 4.0), (15.0, 0.0))
        )
        assert stop[0].v == 0.0 and clamp[0].v == 12.0 and above[0].v == 12.0

    @given(
        x=st.floats(-100, 100), y=st.floats(-100, 100), v=st.floats(0, 25), psi=st.floats(-math.pi, math.pi),
        accels=st.lists(st.floats(-8, 6), min_size=2, max_size=5),
        yaw_rates=st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=5),
        dt=st.floats(0.01, 3.0), v_max=st.floats(1.0, 30.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_cell_bit_equal(self, x, y, v, psi, accels, yaw_rates, dt, v_max):
        self.assert_cells_equal(AgentState(x, y, v, psi), accels, yaw_rates, dt, DynamicsLimits(v_max=v_max))

    def test_empty_axes(self):
        state = AgentState(0, 0, 5, 0)
        assert integrate_unicycle_grid(state, (), (0.1, 0.2), 1.0) == []
        assert integrate_unicycle_grid(state, (1.0, 2.0), (), 1.0) == [[], []]

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            integrate_unicycle_grid(AgentState(0, 0, 5, 0), (0.0,), (0.0,), 0.0)


class TestAgentState:
    def test_rejects_negative_speed(self):
        with pytest.raises(ValueError):
            AgentState(0, 0, -1.0, 0)

    def test_heading_wrapped(self):
        s = AgentState(0, 0, 1, 3 * math.pi)
        assert -math.pi < s.psi <= math.pi

    def test_fields_are_plain_floats(self):
        s = AgentState(np.float64(1.0), np.float64(2.0), np.float64(3.0), np.float64(0.1))
        assert all(type(v) is float for v in (s.x, s.y, s.v, s.psi))


class TestCollision:
    def test_contact_longitudinal(self):
        """4 m boxes nose to tail: centers 3.9 m apart overlap, 4.1 m do not."""
        fp = Footprint(4.0, 2.0)
        a = AgentState(0, 0, 1, 0)
        assert check_collision(a, fp, AgentState(3.9, 0, 1, 0), fp)
        assert not check_collision(a, fp, AgentState(4.1, 0, 1, 0), fp)

    def test_symmetry(self):
        fa, fb = Footprint(4.6, 1.8), Footprint(2.0, 1.0)
        a = AgentState(0, 0, 1, 0.3)
        b = AgentState(2.5, 1.0, 1, -0.8)
        assert check_collision(a, fa, b, fb) == check_collision(b, fb, a, fa)

    def test_rotated_overlap(self):
        fp = Footprint(4.0, 2.0)
        a = AgentState(0, 0, 1, 0)
        b = AgentState(0, 2.5, 1, math.pi / 2)
        # b's long axis is vertical; half extents 2 and 1 meet at gap 3
        assert check_collision(a, fp, b, fp)
        assert not check_collision(a, fp, AgentState(0, 3.2, 1, math.pi / 2), fp)

    def test_clearance_zero_on_overlap_positive_otherwise(self):
        fp = Footprint(4.0, 2.0)
        assert obb_clearance(0, 0, 0, fp, 3.0, 0, 0, fp) == 0.0
        d = obb_clearance(0, 0, 0, fp, 6.0, 0, 0, fp)
        assert d == pytest.approx(2.0, abs=1e-9)

    def test_clearance_vectorized_matches_scalar(self):
        fp = Footprint(4.6, 1.8)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-10, 10, 20)
        ys = rng.uniform(-5, 5, 20)
        psis = rng.uniform(-1, 1, 20)
        batch = obb_clearance(xs, ys, psis, fp, 3.0, 1.0, 0.2, fp)
        for k in range(20):
            single = obb_clearance(xs[k], ys[k], psis[k], fp, 3.0, 1.0, 0.2, fp)
            assert float(batch[k]) == pytest.approx(float(single), abs=1e-12)


class TestOffroad:
    @pytest.fixture
    def band(self):
        """Drivable band y in [-2, 2]."""
        lane = Lane("L", np.array([[0.0, 0.0], [100.0, 0.0]]), 10.0)
        area = np.array([[0.0, -2.0], [100.0, -2.0], [100.0, 2.0], [0.0, 2.0]])
        return LaneGraph((lane,), (area,))

    def test_parallel_near_boundary_stays_on(self, band):
        """4.6x1.8 box, center 0.9 m from the y=2 edge, heading parallel:
        corners reach y = 1.1 + 0.9 = 2.0 exactly; boundary counts inside."""
        fp = Footprint(4.6, 1.8)
        assert not is_offroad(AgentState(50.0, 1.1, 1, 0.0), fp, band)

    def test_perpendicular_near_boundary_goes_off(self, band):
        """Same center but heading perpendicular: corners reach y = 1.1 + 2.3."""
        fp = Footprint(4.6, 1.8)
        assert is_offroad(AgentState(50.0, 1.1, 1, math.pi / 2), fp, band)

    def test_point_in_polygon_boundary_inside(self):
        poly = ((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0))
        assert point_in_polygon(1.0, 0.0, poly)
        assert point_in_polygon(1.0, 1.0, poly)
        assert not point_in_polygon(3.0, 1.0, poly)

    def test_polygons_are_stored_as_float_pairs(self, band):
        area = np.array([[0, -2], [100, -2], [100, 2], [0, 2]])
        lane_map = LaneGraph(band.lanes, (area,))
        area[0, 0] = 50
        assert lane_map.drivable_area == (((0.0, -2.0), (100.0, -2.0), (100.0, 2.0), (0.0, 2.0)),)
        assert all(type(v) is float for poly in lane_map.drivable_area for pt in poly for v in pt)


class TestLaneProjection:
    def test_l_shape_matches_dense_sampling(self):
        """Projection near the corner of an L agrees with brute force."""
        lane = Lane("L", np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]]), 10.0)
        p = (11.0, 1.0)
        arc, lat, heading = project_to_lane(p, lane)

        # dense brute force over the polyline
        ts = np.linspace(0, 1, 20001)
        seg1 = np.stack([10 * ts, np.zeros_like(ts)], axis=1)
        seg2 = np.stack([np.full_like(ts, 10.0), 10 * ts], axis=1)
        pts = np.vstack([seg1, seg2])
        d = np.hypot(pts[:, 0] - p[0], pts[:, 1] - p[1])
        assert abs(lat) == pytest.approx(d.min(), abs=1e-3)

    def test_signed_lateral(self):
        lane = Lane("L", np.array([[0.0, 0.0], [10.0, 0.0]]), 10.0)
        _, lat_left, _ = project_to_lane((5.0, 1.0), lane)
        _, lat_right, _ = project_to_lane((5.0, -1.0), lane)
        assert lat_left == pytest.approx(1.0)
        assert lat_right == pytest.approx(-1.0)

    def test_batch_matches_scalar(self):
        lane = Lane("L", np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [20.0, 12.0]]), 10.0)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-2, 22, size=(40, 2))
        arcs, lats, heads = project_to_lane_batch(pts, lane)
        for k, p in enumerate(pts):
            a, l, h = project_to_lane(p, lane)
            assert a == pytest.approx(float(arcs[k]), abs=1e-12)
            assert l == pytest.approx(float(lats[k]), abs=1e-12)
            assert h == pytest.approx(float(heads[k]), abs=1e-12)

    def test_lane_point_batch_matches_scalar(self):
        lane = Lane("L", np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]]), 10.0)
        arcs = np.array([-1.0, 0.0, 3.0, 10.0, 15.0, 25.0])
        xs, ys, hs = lane_points_at_batch(lane, arcs)
        for k, arc in enumerate(arcs):
            x, y, h = lane_point_at(lane, float(arc))
            assert (x, y, h) == (pytest.approx(float(xs[k])), pytest.approx(float(ys[k])), pytest.approx(float(hs[k])))


class TestLaneTable:
    def test_table_matches_the_centre_line(self):
        lane = Lane("L", [[0.0, 0.0], [3.0, 4.0], [3.0, 10.0]], 10.0)
        np.testing.assert_array_equal(lane.segments, [[3.0, 4.0], [0.0, 6.0]])
        np.testing.assert_array_equal(lane.lengths, [5.0, 6.0])
        np.testing.assert_array_equal(lane.arc, [0.0, 5.0, 11.0])
        assert lane.headings == (math.atan2(4.0, 3.0), math.pi / 2)

    def test_centre_line_is_a_read_only_copy(self):
        given = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]])
        lane = Lane("L", given, 10.0)
        with pytest.raises(ValueError):
            lane.centerline[1, 0] = 5.0
        for table in (lane.segments, lane.lengths, lane.arc):
            with pytest.raises(ValueError):
                table[0] = 1.0
        np.testing.assert_array_equal(given, [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]])
        given[1, 0] = 5.0
        assert lane.centerline[1, 0] == 10.0
        assert lane_point_at(lane, 15.0) == (10.0, 5.0, math.pi / 2)

    def test_rejects_degenerate_centre_lines(self):
        with pytest.raises(ValueError):
            Lane("L", [[0.0, 0.0]], 10.0)
        with pytest.raises(ValueError):
            Lane("L", [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]], 10.0)


class TestLaneEquality:
    CL = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]])

    def test_equal_values_are_equal_lanes_with_one_hash(self):
        a, b = Lane("L", self.CL, 10.0, ("M",)), Lane("L", self.CL.copy().tolist(), 10.0, ["M"])
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert {a, b} == {a}
        assert a != "L"

    @pytest.mark.parametrize("field", ["vertex", "id", "speed_limit", "successors"])
    def test_one_field_apart_is_unequal(self, field):
        cl = self.CL.copy()
        changed = {"id": "L", "centerline": cl, "speed_limit": 10.0, "successors": ("M",)}
        if field == "vertex":
            cl[2, 1] = 10.5
        else:
            changed[field] = {"id": "K", "speed_limit": 11.0, "successors": ("N",)}[field]
        assert Lane(**changed) != Lane("L", self.CL, 10.0, ("M",))

    def test_two_loads_of_a_scenario_are_equal(self):
        path = Path(__file__).resolve().parents[1] / "scenarios" / "cutin.json"
        first, second = load_scenario(path), load_scenario(path)
        assert first == second
        assert first.lane_map.lanes[0] is not second.lane_map.lanes[0]
        assert hash(first.lane_map) == hash(second.lane_map)


class TestNearestLane:
    def test_returns_the_projection_onto_the_nearest_lane(self):
        l0 = Lane("L0", np.array([[0.0, 0.0], [100.0, 0.0]]), 12.0)
        l1 = Lane("L1", np.array([[0.0, 3.5], [100.0, 3.5]]), 12.0)
        lane, arc, lat = LaneGraph((l0, l1)).nearest_lane(20.0, 2.5)
        assert lane is l1
        assert (arc, lat) == project_to_lane((20.0, 2.5), l1)[:2]

    def test_none_without_lanes(self):
        assert LaneGraph().nearest_lane(0.0, 0.0) is None


class TestTrajectory:
    def test_state_at_interpolates(self):
        samples = (AgentState(0, 0, 2, 0), AgentState(2, 0, 2, 0))
        traj = Trajectory(0.0, 1.0, samples)
        mid = traj.state_at(0.5)
        assert mid.x == pytest.approx(1.0)

    def test_footprint_corners_axis_aligned(self):
        corners = footprint_corners(0.0, 0.0, 0.0, Footprint(4.0, 2.0))
        xs = sorted(c[0] for c in corners)
        ys = sorted(c[1] for c in corners)
        assert xs == pytest.approx([-2.0, -2.0, 2.0, 2.0])
        assert ys == pytest.approx([-1.0, -1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# obb_clearance against a brute-force reference


def _ref_corners(x, y, psi, fp):
    c, s = math.cos(psi), math.sin(psi)
    hl, hw = fp.length / 2.0, fp.width / 2.0
    return [(x + dx * c - dy * s, y + dx * s + dy * c) for dx, dy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw))]


def _ref_sat_margin(ca, cb):
    """Largest gap between the two boxes' projections over the four face
    normals; the boxes overlap (touching included) iff it is <= 0."""
    margin = -math.inf
    for poly in (ca, cb):
        for i in (0, 1):
            (x1, y1), (x2, y2) = poly[i], poly[i + 1]
            nx, ny = (y2 - y1), (x1 - x2)
            norm = math.hypot(nx, ny)
            pa = [(nx * px + ny * py) / norm for px, py in ca]
            pb = [(nx * px + ny * py) / norm for px, py in cb]
            margin = max(margin, min(pb) - max(pa), min(pa) - max(pb))
    return margin


def _ref_point_segment(p, a, b):
    dx, dy = b[0] - a[0], b[1] - a[1]
    t = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / (dx * dx + dy * dy)
    t = min(1.0, max(0.0, t))
    return math.hypot(p[0] - a[0] - t * dx, p[1] - a[1] - t * dy)


def ref_clearance(pose_a, fp_a, pose_b, fp_b):
    """(clearance, SAT margin) by SAT and the 32 corner-to-edge distances."""
    ca, cb = _ref_corners(*pose_a, fp_a), _ref_corners(*pose_b, fp_b)
    margin = _ref_sat_margin(ca, cb)
    if margin <= 0.0:
        return 0.0, margin
    dist = min(
        _ref_point_segment(p, poly[i], poly[(i + 1) % 4])
        for pts, poly in ((ca, cb), (cb, ca))
        for p in pts
        for i in range(4)
    )
    return dist, margin


_coord = st.floats(-8.0, 8.0, allow_nan=False)
_angle = st.floats(-math.pi, math.pi, allow_nan=False)
_pose = st.tuples(_coord, _coord, _angle)
_footprint = st.builds(Footprint, st.floats(1.0, 6.0), st.floats(0.5, 3.0))


class TestClearanceReference:
    @given(_pose, _footprint, _pose, _footprint)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, pa, fa, pb, fb):
        want, margin = ref_clearance(pa, fa, pb, fb)
        got = float(obb_clearance(*pa, fa, *pb, fb))
        assert got == pytest.approx(want, abs=1e-9)
        assert float(obb_clearance(*pb, fb, *pa, fa)) == pytest.approx(want, abs=1e-9)
        if abs(margin) > 1e-9:
            assert (got == 0.0) == (margin < 0.0)

    @given(_pose, _footprint, _pose, _footprint)
    @settings(max_examples=200, deadline=None)
    def test_collision_and_overlap_unchanged(self, pa, fa, pb, fb):
        """check_collision agrees with the reference SAT."""
        _, margin = ref_clearance(pa, fa, pb, fb)
        a, b = AgentState(pa[0], pa[1], 1.0, pa[2]), AgentState(pb[0], pb[1], 1.0, pb[2])
        hit = check_collision(a, fa, b, fb)
        assert hit == check_collision(b, fb, a, fa)
        if abs(margin) > 1e-9:
            assert hit == (margin < 0.0)

    @given(
        st.integers(2, 24).map(lambda k: k / 4.0),
        st.integers(2, 12).map(lambda k: k / 4.0),
        st.integers(2, 24).map(lambda k: k / 4.0),
        st.integers(2, 12).map(lambda k: k / 4.0),
        st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2]),
        st.sampled_from(["face_x", "face_y", "corner"]),
        st.integers(-16, 16).map(lambda k: k / 8.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_touching_counts_as_overlap(self, la, wa, lb, wb, psi_b, where, shift):
        """Boxes that share a face or a corner have clearance 0: exactly when
        both are axis-aligned; within rounding when b is turned, since
        sin(pi) and cos(pi / 2) are not exactly 0 in floating point."""
        fa, fb = Footprint(la, wa), Footprint(lb, wb)
        quarter = psi_b in (math.pi / 2, -math.pi / 2)
        hlb, hwb = (wb / 2, lb / 2) if quarter else (lb / 2, wb / 2)  # b's world half extents
        if where == "face_x":
            x, y = la / 2 + hlb, shift * min(wa / 2, hwb)
        elif where == "face_y":
            x, y = shift * min(la / 2, hlb), wa / 2 + hwb
        else:
            x, y = la / 2 + hlb, wa / 2 + hwb
        tol = 0.0 if psi_b == 0.0 else 1e-12
        assert float(obb_clearance(0.0, 0.0, 0.0, fa, x, y, psi_b, fb)) <= tol
        assert float(obb_clearance(x, y, psi_b, fb, 0.0, 0.0, 0.0, fa)) <= tol
        want, _ = ref_clearance((0.0, 0.0, 0.0), fa, (x + 0.5, y, psi_b), fb)
        assert float(obb_clearance(0.0, 0.0, 0.0, fa, x + 0.5, y, psi_b, fb)) == pytest.approx(want, abs=1e-9)

    @given(_angle, _coord, _coord, st.floats(-1e-3, 1e-3))
    @settings(max_examples=100, deadline=None)
    def test_rotated_face_contact_gap(self, theta, x0, y0, gap):
        """Two boxes side by side in a common rotated frame: clearance is the gap."""
        fa, fb = Footprint(4.6, 1.8), Footprint(2.0, 1.2)
        sep = fa.width / 2 + fb.width / 2 + gap
        xb, yb = x0 - sep * math.sin(theta), y0 + sep * math.cos(theta)
        got = float(obb_clearance(x0, y0, theta, fa, xb, yb, theta, fb))
        assert got == pytest.approx(max(gap, 0.0), abs=1e-9)

    def test_broadcast_vector_against_scalar(self):
        fa, fb = Footprint(4.6, 1.8), Footprint(2.0, 1.0)
        rng = np.random.default_rng(7)
        xs, ys, psis = rng.uniform(-8, 8, 25), rng.uniform(-4, 4, 25), rng.uniform(-3, 3, 25)
        got = obb_clearance(xs, ys, psis, fa, 1.0, 0.5, 0.4, fb)
        assert got.shape == (25,)
        for k in range(25):
            want, _ = ref_clearance((xs[k], ys[k], psis[k]), fa, (1.0, 0.5, 0.4), fb)
            assert float(got[k]) == pytest.approx(want, abs=1e-9)
        assert obb_clearance(1.0, 0.5, 0.4, fb, xs, ys, psis, fa).shape == (25,)
        assert np.ndim(obb_clearance(0.0, 0.0, 0.0, fa, 9.0, 0.0, 0.0, fb)) == 0
        assert obb_clearance(0.0, 0.0, 0.0, fa, 0.0, 0.0, psis, fb).shape == (25,)

    def test_broadcast_row_against_matrix(self):
        """Ego samples (1, n) against S stacked agent rows (S, n)."""
        fa, fb = Footprint(4.6, 1.8), Footprint(4.9, 2.1)
        rng = np.random.default_rng(8)
        S, n = 5, 21
        ego = [rng.uniform(-6, 6, (1, n)), rng.uniform(-3, 3, (1, n)), rng.uniform(-3, 3, (1, n))]
        agt = [rng.uniform(-6, 6, (S, n)), rng.uniform(-3, 3, (S, n)), rng.uniform(-3, 3, (S, n))]
        got = obb_clearance(*ego, fa, *agt, fb)
        assert got.shape == (S, n)
        for i in range(S):
            row = obb_clearance(ego[0][0], ego[1][0], ego[2][0], fa, agt[0][i], agt[1][i], agt[2][i], fb)
            np.testing.assert_array_equal(got[i], row)
            for k in range(n):
                want, _ = ref_clearance((ego[0][0, k], ego[1][0, k], ego[2][0, k]), fa,
                                        (agt[0][i, k], agt[1][i, k], agt[2][i, k]), fb)
                assert float(got[i, k]) == pytest.approx(want, abs=1e-9)


class TestWrapAngles:
    def test_matches_scalar_wrap(self):
        pi = math.pi
        edge = [pi, -pi, 2 * pi, -2 * pi, 3 * pi, -3 * pi, 0.0, -0.0,
                np.nextafter(pi, 4.0), np.nextafter(-pi, -4.0), np.nextafter(pi, 0.0), np.nextafter(-pi, 0.0)]
        psi = np.concatenate([edge, np.random.default_rng(0).uniform(-20, 20, 200)])
        got = wrap_angles(psi)
        want = np.array([wrap_angle(float(p)) for p in psi])
        np.testing.assert_array_equal(got, want)
        assert got[0] == pi and got[1] == pi


# ---------------------------------------------------------------------------
# lane and offroad queries against the centre-line-array versions they
# replaced, to the last bit


def _ref_project_to_lane(pos, centerline):
    p = np.asarray(pos, dtype=float)
    cl = np.asarray(centerline, dtype=float)
    a, b = cl[:-1], cl[1:]
    d = b - a
    seg_len = np.hypot(d[:, 0], d[:, 1])
    len2 = np.maximum(seg_len**2, 1e-300)
    t = np.clip(((p - a) * d).sum(axis=1) / len2, 0.0, 1.0)
    closest = a + t[:, None] * d
    dist = np.hypot(*(p - closest).T)
    i = int(np.argmin(dist))
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    arc = float(cum[i] + t[i] * seg_len[i])
    heading = math.atan2(d[i, 1], d[i, 0])
    rel = p - closest[i]
    lateral = float(-math.sin(heading) * rel[0] + math.cos(heading) * rel[1])
    return arc, lateral, heading


def _ref_project_to_lane_batch(points, centerline):
    pts = np.asarray(points, dtype=float)
    cl = np.asarray(centerline, dtype=float)
    a, b = cl[:-1], cl[1:]
    d = b - a
    seg_len = np.hypot(d[:, 0], d[:, 1])
    len2 = np.maximum(seg_len**2, 1e-300)
    rel = pts[:, None, :] - a[None, :, :]
    t = np.clip((rel * d).sum(axis=2) / len2, 0.0, 1.0)
    closest = a[None, :, :] + t[:, :, None] * d[None, :, :]
    diff = pts[:, None, :] - closest
    dist2 = (diff**2).sum(axis=2)
    i = np.argmin(dist2, axis=1)
    rows = np.arange(len(pts))
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    arc = cum[i] + t[rows, i] * seg_len[i]
    heading = np.arctan2(d[i, 1], d[i, 0])
    best = diff[rows, i]
    lateral = -np.sin(heading) * best[:, 0] + np.cos(heading) * best[:, 1]
    return arc, lateral, heading


def _ref_lane_point_at(centerline, arc):
    cl = np.asarray(centerline, dtype=float)
    d = np.diff(cl, axis=0)
    seg_len = np.hypot(d[:, 0], d[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    arc = min(max(arc, 0.0), float(cum[-1]))
    i = int(np.searchsorted(cum, arc, side="right") - 1)
    i = min(i, len(seg_len) - 1)
    frac = (arc - cum[i]) / seg_len[i]
    pt = cl[i] + frac * d[i]
    heading = math.atan2(d[i, 1], d[i, 0])
    return float(pt[0]), float(pt[1]), heading


def _ref_lane_points_at_batch(centerline, arcs):
    cl = np.asarray(centerline, dtype=float)
    d = np.diff(cl, axis=0)
    seg_len = np.hypot(d[:, 0], d[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    arcs = np.clip(np.asarray(arcs, dtype=float), 0.0, float(cum[-1]))
    i = np.searchsorted(cum, arcs, side="right") - 1
    i = np.clip(i, 0, len(seg_len) - 1)
    frac = (arcs - cum[i]) / seg_len[i]
    pts = cl[i] + frac[:, None] * d[i]
    heading = np.arctan2(d[i, 1], d[i, 0])
    return pts[:, 0], pts[:, 1], heading


def _ref_point_in_polygon(px, py, poly):
    n = len(poly)
    inside = False
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        cross = (px - x1) * (y2 - y1) - (py - y1) * (x2 - x1)
        if abs(cross) < 1e-12:
            if min(x1, x2) - 1e-12 <= px <= max(x1, x2) + 1e-12 and min(
                y1, y2
            ) - 1e-12 <= py <= max(y1, y2) + 1e-12:
                return True
        if (y1 > py) != (y2 > py):
            xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < xint:
                inside = not inside
    return inside


def _ref_footprint_corners(x, y, psi, fp):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    psi = np.asarray(psi, dtype=float)
    hl, hw = fp.length / 2.0, fp.width / 2.0
    local = np.array([[hl, hw], [hl, -hw], [-hl, -hw], [-hl, hw]])
    c, s = np.cos(psi), np.sin(psi)
    gx = x[..., None] + local[:, 0] * c[..., None] - local[:, 1] * s[..., None]
    gy = y[..., None] + local[:, 0] * s[..., None] + local[:, 1] * c[..., None]
    return np.stack([gx, gy], axis=-1)


def _ref_is_offroad(state, fp, polys):
    corners = _ref_footprint_corners(state.x, state.y, state.psi, fp)
    for cx, cy in corners:
        if not any(_ref_point_in_polygon(cx, cy, poly) for poly in polys):
            return True
    return False


def _hex(*values):
    """float.hex of every number in the (possibly nested) values."""
    out = []
    for v in values:
        if isinstance(v, np.ndarray):
            out.append([float.hex(x) for x in v.tolist()])
        elif isinstance(v, (tuple, list)):
            out.append(_hex(*v))
        else:
            out.append(float.hex(float(v)))
    return out


def _curved_polyline(rng) -> np.ndarray:
    """2 to 20 vertices; segment lengths 0.5 to 30 m, each turning up to
    1 rad from the last."""
    n = int(rng.integers(2, 21))
    headings = rng.uniform(-math.pi, math.pi) + np.cumsum(rng.uniform(-1.0, 1.0, n - 1))
    steps = rng.uniform(0.5, 30.0, n - 1)[:, None] * np.column_stack([np.cos(headings), np.sin(headings)])
    return rng.uniform(-200.0, 200.0, 2) + np.concatenate([np.zeros((1, 2)), np.cumsum(steps, axis=0)])


class TestFootprintCornersMatchReference:
    @given(_coord, _coord, st.floats(-10.0, 10.0), _footprint)
    @settings(max_examples=200, deadline=None)
    def test_corners(self, x, y, psi, fp):
        want = _ref_footprint_corners(x, y, psi, fp).tolist()
        assert _hex(footprint_corners(x, y, psi, fp)) == _hex(want)


class TestLaneQueriesMatchReference:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_projection(self, seed):
        rng = np.random.default_rng(seed)
        cl = _curved_polyline(rng)
        lane = Lane("L", cl, 10.0)
        lo, hi = cl.min(axis=0) - 10.0, cl.max(axis=0) + 10.0
        # random points, the vertices and points along the segments
        pts = np.concatenate([
            rng.uniform(lo, hi, (20, 2)),
            cl,
            cl[:-1] + rng.uniform(0.0, 1.0, (len(cl) - 1, 1)) * np.diff(cl, axis=0),
        ])
        for p in pts:
            assert _hex(project_to_lane(p, lane)) == _hex(_ref_project_to_lane(p, cl))
            assert _hex(project_to_lane(tuple(p.tolist()), lane)) == _hex(_ref_project_to_lane(p, cl))
        assert _hex(project_to_lane_batch(pts, lane)) == _hex(_ref_project_to_lane_batch(pts, cl))
        x, y = (float(v) for v in pts[0])
        nearest = LaneGraph((Lane("A", cl[::-1].copy(), 10.0), lane)).nearest_lane(x, y)
        want = min(
            ((name, *_ref_project_to_lane((x, y), c)) for name, c in (("A", cl[::-1]), ("L", cl))),
            key=lambda r: abs(r[2]),
        )
        assert (nearest[0].id, *_hex(nearest[1:])) == (want[0], *_hex(want[1:3]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_point_at_arc(self, seed):
        rng = np.random.default_rng(seed)
        cl = _curved_polyline(rng)
        lane = Lane("L", cl, 10.0)
        cum = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(cl, axis=0).T))])
        end = float(cum[-1])
        vertices = cum.tolist()
        arcs = (
            [-5.0, -1e-12, -0.0, 0.0, end, end + 1e-9, end + 50.0]
            + vertices
            + [math.nextafter(a, -math.inf) for a in vertices]
            + [math.nextafter(a, math.inf) for a in vertices]
            + rng.uniform(-1.0, end + 1.0, 20).tolist()
        )
        for arc in arcs:
            assert _hex(lane_point_at(lane, arc)) == _hex(_ref_lane_point_at(cl, arc))
        arcs = np.array(arcs)
        assert _hex(lane_points_at_batch(lane, arcs)) == _hex(_ref_lane_points_at_batch(cl, arcs))


# a comb of three teeth: non-convex, with edges that are horizontal,
# vertical and slanted, and reflex vertices
_COMB = np.array([
    [0.0, 0.0], [30.0, 0.0], [30.0, 12.0], [24.5, 12.0], [22.0, 4.0], [18.0, 4.0],
    [15.0, 12.0], [10.0, 12.0], [10.0, 4.0], [6.0, 4.0], [3.25, 9.5], [0.0, 12.0],
])
_SECOND = np.array([[28.0, 10.0], [60.0, 10.0], [60.0, 16.0], [28.0, 16.0]])


def _probe_points(poly, rng):
    """Vertices, points on edges and just off them (inside and outside the
    1e-12 cross-product tolerance), points on the lines through edges beyond
    them, points level with each vertex, and random points."""
    nxt = np.roll(poly, -1, axis=0)
    d = nxt - poly
    f = rng.uniform(0.0, 1.0, (len(poly), 1))
    normal = d[:, ::-1] * [1.0, -1.0] / np.hypot(d[:, :1], d[:, 1:])
    off = [poly + f * d + eps * normal for eps in (-1e-12, -1e-14, 1e-14, 1e-12)]
    lo, hi = poly.min(axis=0) - 3.0, poly.max(axis=0) + 3.0
    level = np.column_stack([rng.uniform(lo[0], hi[0], len(poly)), poly[:, 1]])
    return np.concatenate([
        poly, poly + 0.5 * d, poly + f * d, *off, poly - 0.25 * d, nxt + 0.25 * d, level,
        rng.uniform(lo, hi, (40, 2)),
    ]).tolist()


class TestOffroadMatchesReference:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_point_in_non_convex_polygon(self, seed):
        rng = np.random.default_rng(seed)
        stored = LaneGraph((), (_COMB,)).drivable_area[0]
        for px, py in _probe_points(_COMB, rng):
            assert point_in_polygon(px, py, stored) == _ref_point_in_polygon(px, py, _COMB)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_offroad_on_two_polygons(self, seed):
        rng = np.random.default_rng(seed)
        lane_map = LaneGraph((), (_COMB, _SECOND))
        fp = Footprint(float(rng.uniform(1.0, 5.0)), float(rng.uniform(0.5, 2.5)))
        hl, hw = fp.length / 2.0, fp.width / 2.0
        states = [
            AgentState(x, y, 1.0, float(rng.uniform(-math.pi, math.pi)))
            for x, y in _probe_points(_COMB, rng) + _probe_points(_SECOND, rng)
        ]
        # axis-aligned boxes with a corner on a vertex of either polygon
        for vx, vy in np.concatenate([_COMB, _SECOND]).tolist():
            for sx in (-1.0, 1.0):
                for sy in (-1.0, 1.0):
                    states.append(AgentState(vx + sx * hl, vy + sy * hw, 1.0, 0.0))
        for s in states:
            assert is_offroad(s, fp, lane_map) == _ref_is_offroad(s, fp, (_COMB, _SECOND))


def _reach(fa, fb):
    return 0.5 * (math.hypot(fa.length, fa.width) + math.hypot(fb.length, fb.width))


_near_zero = st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9]) | st.floats(-1e-9, 1e-9)


class TestCollisionIsExactClearance:
    """check_collision is obb_clearance == 0 for every pose, the bounding-circle
    reject included: poses at the edge of the reject, touching corner to
    corner or edge to edge, at centre distances within 1e-9 m of the sum of
    the half-diagonals."""

    @staticmethod
    def _agree(a, fa, b, fb):
        want = bool(obb_clearance(a.x, a.y, a.psi, fa, b.x, b.y, b.psi, fb) == 0.0)
        assert check_collision(a, fa, b, fb) == want
        want = bool(obb_clearance(b.x, b.y, b.psi, fb, a.x, a.y, a.psi, fa) == 0.0)
        assert check_collision(b, fb, a, fa) == want

    @given(_footprint, _footprint, st.floats(1.0, 2.0), _pose, _angle, _near_zero, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_corner_to_corner(self, fa, fb, scale, pose_a, turn, delta, similar):
        """b's diagonal continues a's, so their corners touch at delta = 0;
        with similar footprints the two diagonals are one line."""
        if similar:
            fb = Footprint(fa.length * scale, fa.width * scale)
        x, y, psi_a = pose_a
        x, y = 30.0 * x, 30.0 * y
        phi = psi_a + math.atan2(fa.width, fa.length)
        psi_b = phi - math.atan2(fb.width, fb.length) + (turn if not similar else 0.0)
        dist = _reach(fa, fb) + delta
        a = AgentState(x, y, 1.0, psi_a)
        b = AgentState(x + dist * math.cos(phi), y + dist * math.sin(phi), 1.0, psi_b)
        self._agree(a, fa, b, fb)

    @given(_footprint, _footprint, _pose, st.floats(-1.0, 1.0), _near_zero, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_edge_to_edge(self, fa, fb, pose_a, shift, delta, flip):
        """b beside a, sharing the direction of a's long side, its facing
        edge delta beyond a's."""
        x, y, psi = pose_a
        side = fa.width / 2 + fb.width / 2 + delta
        along = shift * (fa.length + fb.length) / 2
        c, s = math.cos(psi), math.sin(psi)
        a = AgentState(x, y, 1.0, psi)
        b = AgentState(x + along * c - side * s, y + along * s + side * c, 1.0, psi + (math.pi if flip else 0.0))
        self._agree(a, fa, b, fb)

    @given(_footprint, _footprint, _pose, _angle, _angle, _near_zero)
    @settings(max_examples=200, deadline=None)
    def test_centres_at_the_reject_distance(self, fa, fb, pose_a, direction, psi_b, delta):
        x, y, psi_a = pose_a
        dist = _reach(fa, fb) + delta
        a = AgentState(x, y, 1.0, psi_a)
        b = AgentState(x + dist * math.cos(direction), y + dist * math.sin(direction), 1.0, psi_b)
        self._agree(a, fa, b, fb)
