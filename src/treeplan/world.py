"""Kinematic, geometric, and map primitives shared by every planner module.

All types are immutable values; all operations are pure functions.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(psi: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    psi = math.fmod(psi, TWO_PI)
    if psi > math.pi:
        psi -= TWO_PI
    elif psi <= -math.pi:
        psi += TWO_PI
    return psi


def wrap_angles(psi: np.ndarray) -> np.ndarray:
    """wrap_angle over an array, with the same (-pi, pi] convention."""
    psi = np.fmod(psi, TWO_PI)
    return np.where(psi > math.pi, psi - TWO_PI, np.where(psi <= -math.pi, psi + TWO_PI, psi))


@dataclass(frozen=True)
class AgentState:
    """Planar kinematic state: position, speed (>= 0), heading in (-pi, pi]."""

    x: float
    y: float
    v: float
    psi: float

    def __post_init__(self):
        if self.v < 0.0:
            raise ValueError(f"speed must be nonnegative, got {self.v}")
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "v", float(self.v))
        object.__setattr__(self, "psi", wrap_angle(float(self.psi)))


@dataclass(frozen=True)
class UnicycleInput:
    """Control input of the dynamically extended unicycle: accel and yaw rate."""

    a: float
    omega: float


@dataclass(frozen=True)
class DynamicsLimits:
    a_max: float = 4.0
    a_min: float = -6.0
    omega_max: float = 1.0
    v_max: float = 20.0
    kappa_max: float = 0.3

    def __post_init__(self):
        if not (self.a_min < 0.0 < self.a_max):
            raise ValueError("need a_min < 0 < a_max")
        if self.omega_max <= 0 or self.v_max <= 0 or self.kappa_max <= 0:
            raise ValueError("omega_max, v_max, kappa_max must be positive")

    def clamp(self, u: UnicycleInput) -> UnicycleInput:
        a = min(max(u.a, self.a_min), self.a_max)
        omega = min(max(u.omega, -self.omega_max), self.omega_max)
        return UnicycleInput(a, omega)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled motion segment: samples[k] is the state at t0 + k*dt.

    A zero-duration segment is a single sample.
    """

    t0: float
    dt: float
    samples: tuple

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if len(self.samples) == 0:
            raise ValueError("samples must be non-empty")
        object.__setattr__(self, "samples", tuple(self.samples))

    @property
    def duration(self) -> float:
        return (len(self.samples) - 1) * self.dt

    @property
    def t_end(self) -> float:
        return self.t0 + self.duration

    @property
    def start(self) -> AgentState:
        return self.samples[0]

    @property
    def end(self) -> AgentState:
        return self.samples[-1]

    def arrays(self):
        """(x, y, v, psi) arrays over the samples."""
        a = np.array([[s.x, s.y, s.v, s.psi] for s in self.samples])
        return a[:, 0], a[:, 1], a[:, 2], a[:, 3]

    def state_at(self, t: float) -> AgentState:
        """Linearly interpolated state at time t, clamped to the support."""
        tau = (t - self.t0) / self.dt
        k = int(math.floor(tau))
        if k < 0:
            return self.samples[0]
        if k >= len(self.samples) - 1:
            return self.samples[-1]
        frac = tau - k
        s0, s1 = self.samples[k], self.samples[k + 1]
        dpsi = wrap_angle(s1.psi - s0.psi)
        return AgentState(
            x=s0.x + frac * (s1.x - s0.x),
            y=s0.y + frac * (s1.y - s0.y),
            v=max(0.0, s0.v + frac * (s1.v - s0.v)),
            psi=wrap_angle(s0.psi + frac * dpsi),
        )


@dataclass(frozen=True)
class Footprint:
    """Axis-aligned-in-body-frame rectangular footprint."""

    length: float
    width: float

    def __post_init__(self):
        if self.length <= 0 or self.width <= 0:
            raise ValueError("footprint dimensions must be positive")


@dataclass(frozen=True, eq=False)
class Lane:
    """A lane's centre line with its arc table, built once.

    centerline is a read-only (n, 2) copy of the polyline given. segments
    holds the n - 1 segment vectors, lengths their lengths and arc the
    cumulative arc length at each vertex, all read-only arrays; headings is
    each segment's heading. The lane queries below read these tables. Lanes
    are equal, and hash alike, when their id, centre-line values, speed
    limit and successors are equal.
    """

    id: str
    centerline: np.ndarray  # (n, 2), n >= 2
    speed_limit: float
    successors: tuple = ()
    segments: np.ndarray = field(init=False, repr=False, compare=False)
    lengths: np.ndarray = field(init=False, repr=False, compare=False)
    arc: np.ndarray = field(init=False, repr=False, compare=False)
    headings: tuple = field(init=False, repr=False, compare=False)
    # the squared lengths the projection divides by, and the arc table as
    # floats for scalar lookups: arc per vertex, (x, y, dx, dy, length,
    # heading) per segment
    _len2: np.ndarray = field(init=False, repr=False, compare=False)
    _arc_floats: tuple = field(init=False, repr=False, compare=False)
    _rows: tuple = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cl = np.array(self.centerline, dtype=float)
        if cl.ndim != 2 or cl.shape[0] < 2 or cl.shape[1] != 2:
            raise ValueError("centerline must be an (n>=2, 2) array")
        seg = np.diff(cl, axis=0)
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        if not np.all(seg_len > 0):
            raise ValueError("centerline must have strictly increasing arc length")
        cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        len2 = np.maximum(seg_len**2, 1e-300)
        for a in (cl, seg, seg_len, cum, len2):
            a.flags.writeable = False
        headings = tuple(math.atan2(dy, dx) for dx, dy in seg.tolist())
        for name, value in (
            ("centerline", cl),
            ("successors", tuple(self.successors)),
            ("segments", seg),
            ("lengths", seg_len),
            ("arc", cum),
            ("headings", headings),
            ("_len2", len2),
            ("_arc_floats", tuple(cum.tolist())),
            ("_rows", tuple(zip(*cl[:-1].T.tolist(), *seg.T.tolist(), seg_len.tolist(), headings))),
            ("_key", (self.id, tuple(map(tuple, cl.tolist())), self.speed_limit, tuple(self.successors))),
        ):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return self._key == other._key if isinstance(other, Lane) else NotImplemented

    def __hash__(self):
        return hash(self._key)


@dataclass(frozen=True)
class LaneGraph:
    """Lanes and the drivable area, a union of polygons each stored as a
    tuple of (x, y) float pairs."""

    lanes: tuple = ()
    drivable_area: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "lanes", tuple(self.lanes))
        polys = tuple(np.asarray(p, dtype=float) for p in self.drivable_area)
        for p in polys:
            if p.ndim != 2 or p.shape[0] < 3 or p.shape[1] != 2:
                raise ValueError("drivable-area polygon needs >= 3 vertices")
        object.__setattr__(self, "drivable_area", tuple(tuple(map(tuple, p.tolist())) for p in polys))

    def lane_by_id(self, lane_id: str) -> Lane:
        for lane in self.lanes:
            if lane.id == lane_id:
                return lane
        raise KeyError(lane_id)

    def nearest_lane(self, x: float, y: float) -> tuple | None:
        """(lane, arc, lateral) of the lane with the least |lateral| offset
        at (x, y), from project_to_lane; None when there are no lanes."""
        best, best_d = None, math.inf
        for lane in self.lanes:
            arc, lat, _ = project_to_lane((x, y), lane)
            if abs(lat) < best_d:
                best, best_d = (lane, arc, lat), abs(lat)
        return best


# ---------------------------------------------------------------------------
# dynamics


def integrate_unicycle(
    state: AgentState,
    u: UnicycleInput,
    dt: float,
    limits: DynamicsLimits = DynamicsLimits(),
) -> AgentState:
    """RK4 step of the extended unicycle; speed clamped to [0, v_max].

    Steps longer than 0.1 s are split into equal substeps so the endpoint
    stays within 1e-6 m of the closed-form constant-input arc.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_sub = max(1, int(math.ceil(dt / 0.1 - 1e-12)))
    h = dt / n_sub
    a, omega = u.a, u.omega
    x, y, v, psi = state.x, state.y, state.v, state.psi
    for _ in range(n_sub):
        # the derivative (v cos psi, v sin psi, a, omega) depends on v and psi
        # alone, and both advance at constant rates, so k3 equals k2; the sums
        # keep the order of the vector form k1 + 2 k2 + 2 k3 + k4
        v_mid, psi_mid = v + 0.5 * h * a, psi + 0.5 * h * omega
        v_end, psi_end = v + h * a, psi + h * omega
        dx1, dy1 = v * math.cos(psi), v * math.sin(psi)
        dx2, dy2 = v_mid * math.cos(psi_mid), v_mid * math.sin(psi_mid)
        dx4, dy4 = v_end * math.cos(psi_end), v_end * math.sin(psi_end)
        x = x + (h / 6.0) * (dx1 + 2 * dx2 + 2 * dx2 + dx4)
        y = y + (h / 6.0) * (dy1 + 2 * dy2 + 2 * dy2 + dy4)
        v = v + (h / 6.0) * (a + 2 * a + 2 * a + a)
        psi = psi + (h / 6.0) * (omega + 2 * omega + 2 * omega + omega)
        v = min(max(v, 0.0), limits.v_max)
    return AgentState(x, y, v, wrap_angle(psi))


def integrate_unicycle_grid(
    state: AgentState,
    accels,
    yaw_rates,
    dt: float,
    limits: DynamicsLimits = DynamicsLimits(),
) -> list:
    """integrate_unicycle from one state under every constant (a, omega).

    Returns one list per acceleration: grid[i][j] equals, bit for bit,
    integrate_unicycle(state, UnicycleInput(accels[i], yaw_rates[j]), dt,
    limits). The speed depends on the acceleration alone and the heading on
    the yaw rate alone, so each is stepped once per value: the clamped speed
    by the scalar loop, the unclamped heading as a sequential sum. Only the
    position increments are formed per (a, omega) pair, as arrays in the
    scalar loop's order of operations, and summed in sequence. Every cos and
    sin is math's, so equality does not depend on numpy's math library.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_sub = max(1, int(math.ceil(dt / 0.1 - 1e-12)))
    h = dt / n_sub
    # speed at the start of each substep
    v_start, v_final = [], []
    for a in accels:
        v, dv = state.v, (h / 6.0) * (a + 2 * a + 2 * a + a)
        for _ in range(n_sub):
            v_start.append(v)
            v = v + dv
            if v < 0.0:
                v = 0.0
            elif v > limits.v_max:
                v = limits.v_max
        v_final.append(v)
    accel = np.array(accels, dtype=float).reshape(-1, 1)
    v = np.array(v_start).reshape(-1, n_sub)
    speeds = np.stack([v, v + 0.5 * h * accel, v + h * accel])  # (3, A, n_sub)
    # heading at the start of each substep
    omega = np.array(yaw_rates, dtype=float).reshape(-1, 1)
    psi = np.empty((len(yaw_rates), n_sub + 1))
    psi[:, 0] = state.psi
    psi[:, 1:] = (h / 6.0) * (omega + 2 * omega + 2 * omega + omega)
    psi = np.add.accumulate(psi, axis=1)
    psi_final = [wrap_angle(p) for p in psi[:, -1].tolist()]
    psi = psi[:, :-1]
    angles = np.stack([psi, psi + 0.5 * h * omega, psi + h * omega]).ravel().tolist()
    trig = np.array([list(map(math.cos, angles)), list(map(math.sin, angles))])
    # x and y rates at the start, middle and end of each substep: (2, 3, A, W, n_sub)
    rates = speeds[None, :, :, None, :] * trig.reshape(2, 3, 1, len(yaw_rates), n_sub)
    d1, d2, d4 = rates[:, 0], rates[:, 1], rates[:, 2]
    twice_d2 = 2 * d2
    steps = np.empty(d1.shape[:-1] + (n_sub + 1,))
    steps[0, ..., 0] = state.x
    steps[1, ..., 0] = state.y
    steps[..., 1:] = (h / 6.0) * (d1 + twice_d2 + twice_d2 + d4)
    ends = np.add.accumulate(steps, axis=-1)[..., -1].tolist()
    return [
        [AgentState(x, y, v, psi) for x, y, psi in zip(xs, ys, psi_final)]
        for xs, ys, v in zip(ends[0], ends[1], v_final)
    ]


# ---------------------------------------------------------------------------
# oriented-box geometry


def footprint_corners(x: float, y: float, psi: float, fp: Footprint) -> list:
    """The four (x, y) corners of the oriented footprint rectangle, front
    left first, clockwise. The heading's cos and sin are numpy's, as in
    obb_clearance; math's can differ in the last bit."""
    c, s = float(np.cos(psi)), float(np.sin(psi))
    hl, hw = fp.length / 2.0, fp.width / 2.0
    return [(x + lx * c - ly * s, y + lx * s + ly * c) for lx, ly in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw))]


def _corners_in_frame(cu, cv, c, s, fp: Footprint):
    """Corners of a box with centre (cu, cv) and heading atan2(s, c) in
    another box's body frame: two arrays of shape (4, ...)."""
    shape = (4,) + (1,) * np.ndim(cu)
    lx = (fp.length / 2.0) * np.array([1.0, 1.0, -1.0, -1.0]).reshape(shape)
    ly = (fp.width / 2.0) * np.array([1.0, -1.0, -1.0, 1.0]).reshape(shape)
    return cu + c * lx - s * ly, cv + s * lx + c * ly


def _corner_box_distance(u, v, fp: Footprint):
    """Least distance of the four corners (u, v), shape (4, ...), to the box
    fp centred at the origin and aligned with the axes."""
    du = np.maximum(np.abs(u) - fp.length / 2.0, 0.0)
    dv = np.maximum(np.abs(v) - fp.width / 2.0, 0.0)
    return np.hypot(du, dv).min(axis=0)


def obb_clearance(
    x_a, y_a, psi_a, fp_a: Footprint, x_b, y_b, psi_b, fp_b: Footprint
):
    """Clearance between two oriented boxes; 0 when overlapping.

    All pose arguments broadcast; returns an array (or scalar) of distances.
    Each box's corners are mapped into the other's body frame. There the
    separating-axis test on the four face normals is an interval check on the
    corner coordinates, and the distance between disjoint boxes is the least
    of the eight closed-form corner-to-box distances. Touching boxes count as
    overlapping.
    """
    dx = np.subtract(x_b, x_a, dtype=float)
    dy = np.subtract(y_b, y_a, dtype=float)
    psi_a = np.asarray(psi_a, dtype=float)
    psi_b = np.asarray(psi_b, dtype=float)
    ca, sa = np.cos(psi_a), np.sin(psi_a)
    cb, sb = np.cos(psi_b), np.sin(psi_b)
    c = ca * cb + sa * sb  # cos(psi_b - psi_a)
    s = ca * sb - sa * cb  # sin(psi_b - psi_a)
    dx, dy, c, s = np.broadcast_arrays(dx, dy, c, s)
    ub, vb = _corners_in_frame(ca * dx + sa * dy, ca * dy - sa * dx, c, s, fp_b)
    ua, va = _corners_in_frame(-(cb * dx + sb * dy), sb * dx - cb * dy, c, -s, fp_a)
    hla, hwa = fp_a.length / 2.0, fp_a.width / 2.0
    hlb, hwb = fp_b.length / 2.0, fp_b.width / 2.0
    sep = (
        (ub.min(axis=0) > hla) | (ub.max(axis=0) < -hla)
        | (vb.min(axis=0) > hwa) | (vb.max(axis=0) < -hwa)
        | (ua.min(axis=0) > hlb) | (ua.max(axis=0) < -hlb)
        | (va.min(axis=0) > hwb) | (va.max(axis=0) < -hwb)
    )
    dist = np.minimum(_corner_box_distance(ub, vb, fp_a), _corner_box_distance(ua, va, fp_b))
    return np.where(sep, dist, 0.0)


def check_collision(
    ego: AgentState, ego_fp: Footprint, other: AgentState, other_fp: Footprint
) -> bool:
    """True iff the two oriented footprint rectangles overlap (touching counts).

    Boxes whose centres lie farther apart than the sum of their half-diagonals
    cannot touch; with 1e-6 m to spare for rounding they are rejected here,
    and obb_clearance decides every other pair.
    """
    reach = 0.5 * (math.hypot(ego_fp.length, ego_fp.width) + math.hypot(other_fp.length, other_fp.width))
    if math.hypot(other.x - ego.x, other.y - ego.y) > reach + 1e-6:
        return False
    d = obb_clearance(ego.x, ego.y, ego.psi, ego_fp, other.x, other.y, other.psi, other_fp)
    return bool(d == 0.0)


def point_in_polygon(px: float, py: float, poly: tuple) -> bool:
    """Ray-casting point-in-polygon test on a tuple of (x, y) float pairs;
    boundary points count as inside."""
    inside = False
    for (x1, y1), (x2, y2) in zip(poly, (*poly[1:], poly[0])):
        # on-segment check: boundary is inside
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


def is_offroad(state: AgentState, fp: Footprint, lane_map: LaneGraph) -> bool:
    """True iff any footprint corner is outside the drivable-area union."""
    if not lane_map.drivable_area:
        raise ValueError("map has no drivable area")
    for cx, cy in footprint_corners(state.x, state.y, state.psi, fp):
        if not any(point_in_polygon(cx, cy, poly) for poly in lane_map.drivable_area):
            return True
    return False


def project_to_lane(pos, lane: Lane):
    """Nearest-point projection onto the lane's centre line.

    Returns (arc_length, lateral_offset, lane_heading); lateral offset is
    signed, positive to the left of the lane direction.
    """
    p = np.asarray(pos, dtype=float)
    a, d = lane.centerline[:-1], lane.segments
    t = np.clip(((p - a) * d).sum(axis=1) / lane._len2, 0.0, 1.0)
    closest = a + t[:, None] * d
    dist = np.hypot(*(p - closest).T)
    i = int(np.argmin(dist))
    t = float(t[i])
    x0, y0, dx, dy, seg_len, heading = lane._rows[i]
    arc = lane._arc_floats[i] + t * seg_len
    rel_x, rel_y = float(p[0]) - (x0 + t * dx), float(p[1]) - (y0 + t * dy)
    lateral = -math.sin(heading) * rel_x + math.cos(heading) * rel_y
    return arc, lateral, heading


def project_to_lane_batch(points: np.ndarray, lane: Lane):
    """Vectorized nearest-point projection for an (n, 2) array of points.

    Returns (arc, lateral, heading) arrays of length n with the same
    conventions as project_to_lane.
    """
    pts = np.asarray(points, dtype=float)
    a, d = lane.centerline[:-1], lane.segments
    rel = pts[:, None, :] - a[None, :, :]  # (n, m, 2)
    t = np.clip((rel * d).sum(axis=2) / lane._len2, 0.0, 1.0)  # (n, m)
    closest = a[None, :, :] + t[:, :, None] * d[None, :, :]
    diff = pts[:, None, :] - closest
    dist2 = (diff**2).sum(axis=2)
    i = np.argmin(dist2, axis=1)  # (n,)
    rows = np.arange(len(pts))
    arc = lane.arc[i] + t[rows, i] * lane.lengths[i]
    heading = np.arctan2(d[i, 1], d[i, 0])
    best = diff[rows, i]
    lateral = -np.sin(heading) * best[:, 0] + np.cos(heading) * best[:, 1]
    return arc, lateral, heading


def lane_point_at(lane: Lane, arc: float):
    """Point and heading on the centre line at the given (clamped) arc length."""
    cum = lane._arc_floats
    arc = min(max(arc, 0.0), cum[-1])
    i = min(bisect_right(cum, arc) - 1, len(cum) - 2)
    x0, y0, dx, dy, seg_len, heading = lane._rows[i]
    frac = (arc - cum[i]) / seg_len
    return x0 + frac * dx, y0 + frac * dy, heading


def lane_points_at_batch(lane: Lane, arcs: np.ndarray):
    """Vectorized lane_point_at: (x, y, heading) arrays for an arc array."""
    cum, d = lane.arc, lane.segments
    arcs = np.clip(np.asarray(arcs, dtype=float), 0.0, float(cum[-1]))
    i = np.searchsorted(cum, arcs, side="right") - 1
    i = np.clip(i, 0, len(d) - 1)
    frac = (arcs - cum[i]) / lane.lengths[i]
    pts = lane.centerline[i] + frac[:, None] * d[i]
    heading = np.arctan2(d[i, 1], d[i, 0])
    return pts[:, 0], pts[:, 1], heading
