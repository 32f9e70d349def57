"""Ego trajectory tree generation.

Terminal states are sampled around the current state (constant accel/yaw-rate
endpoints plus lane-centerline targets), connected by cubic Hermite splines,
filtered for dynamic feasibility, and grown stage by stage into a tree with a
per-node children cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDuration
from .world import (
    AgentState,
    DynamicsLimits,
    LaneGraph,
    Trajectory,
    integrate_unicycle_grid,
    lane_point_at,
    project_to_lane,
    wrap_angle,
)


@dataclass(frozen=True)
class StageSchedule:
    """Stage durations for stages 0..N; stage 0 is the root stage.

    The root stage is the current state, so stage_durations[0] is zero; the
    N >= 1 later durations are positive multiples of dt.
    """

    stage_durations: tuple
    dt: float = 0.1

    def __post_init__(self):
        durs = tuple(float(d) for d in self.stage_durations)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if len(durs) < 2:
            raise ValueError("need the root stage and at least one stage after it")
        if durs[0] != 0.0:
            raise ValueError("the root stage duration must be 0")
        for d in durs[1:]:
            if d <= 0:
                raise ValueError("stage durations must be positive")
        for d in durs:
            steps = d / self.dt
            if abs(steps - round(steps)) > 1e-9:
                raise ValueError("stage durations must be integer multiples of dt")
        object.__setattr__(self, "stage_durations", durs)

    @property
    def num_stages(self) -> int:
        """N: the index of the last stage."""
        return len(self.stage_durations) - 1

    @property
    def horizon(self) -> float:
        return sum(self.stage_durations)

    def stage_start(self, i: int) -> float:
        return sum(self.stage_durations[:i])

    @classmethod
    def uniform(cls, num_stages: int, stage_duration: float = 2.0, dt: float = 0.1):
        return cls((0.0,) + (stage_duration,) * num_stages, dt)


@dataclass(frozen=True)
class SplineSegment:
    """Pair of cubics x(t) = sum c_k t^k, y(t) likewise, over [0, duration]."""

    coeffs_x: tuple
    coeffs_y: tuple
    duration: float

    def _eval(self, coeffs, t, deriv=0):
        t = np.asarray(t, dtype=float)
        c0, c1, c2, c3 = coeffs
        if deriv == 0:
            return c0 + t * (c1 + t * (c2 + t * c3))
        if deriv == 1:
            return c1 + t * (2 * c2 + t * 3 * c3)
        if deriv == 2:
            return 2 * c2 + 6 * c3 * t
        raise ValueError("deriv must be 0, 1 or 2")

    def position(self, t):
        return self._eval(self.coeffs_x, t), self._eval(self.coeffs_y, t)

    def velocity(self, t):
        return self._eval(self.coeffs_x, t, 1), self._eval(self.coeffs_y, t, 1)

    def acceleration(self, t):
        return self._eval(self.coeffs_x, t, 2), self._eval(self.coeffs_y, t, 2)


def fit_spline(start: AgentState, terminal: AgentState, duration: float, dt: float = 0.1) -> SplineSegment:
    """Unique cubic pair matching endpoint positions and velocity vectors.

    The four conditions per axis (position and velocity at both ends)
    determine each cubic in closed form.
    """
    if duration < dt:
        raise DegenerateDuration(f"duration {duration} < dt {dt}")
    T = float(duration)

    def hermite(p0, v0, p1, v1):
        c0, c1 = p0, v0
        c2 = (3 * (p1 - p0) - (2 * v0 + v1) * T) / T**2
        c3 = (2 * (p0 - p1) + (v0 + v1) * T) / T**3
        return (c0, c1, c2, c3)

    vx0, vy0 = start.v * math.cos(start.psi), start.v * math.sin(start.psi)
    vx1, vy1 = terminal.v * math.cos(terminal.psi), terminal.v * math.sin(terminal.psi)
    return SplineSegment(
        coeffs_x=hermite(start.x, vx0, terminal.x, vx1),
        coeffs_y=hermite(start.y, vy0, terminal.y, vy1),
        duration=T,
    )


def spline_to_trajectory(
    spline: SplineSegment, start: AgentState, terminal: AgentState, dt: float, t0: float
) -> Trajectory:
    """Sample a spline into a Trajectory; endpoints pinned to the exact states."""
    n = int(round(spline.duration / dt))
    ts = np.arange(n + 1) * dt
    xs, ys = spline.position(ts)
    vxs, vys = spline.velocity(ts)
    speeds = np.hypot(vxs, vys).tolist()
    xs, ys, vxs, vys = xs.tolist(), ys.tolist(), vxs.tolist(), vys.tolist()
    samples = [start]
    prev_psi = start.psi
    for k in range(1, n):
        if speeds[k] > 1e-6:
            psi = math.atan2(vys[k], vxs[k])
        else:
            psi = prev_psi
        samples.append(AgentState(xs[k], ys[k], speeds[k], psi))
        prev_psi = psi
    if n >= 1:
        samples.append(terminal)
    return Trajectory(t0=t0, dt=dt, samples=tuple(samples))


# lanes farther than this from the parent state offer no targets (m)
LANE_SEARCH_RADIUS = 5.0
# candidates closer than all three of these are duplicates (m, rad, m/s)
DEDUPE_POS_TOL = 0.1
DEDUPE_PSI_TOL = 0.05
DEDUPE_V_TOL = 0.1
# slack on every dynamic limit of the feasibility filter
FEASIBILITY_EPS = 1e-6


def segment_feasible(spline: SplineSegment, limits: DynamicsLimits, dt: float) -> bool:
    """Dynamic-feasibility filter from the spline's analytic derivatives.

    Rejects segments whose sampled speed exceeds v_max, whose longitudinal
    acceleration leaves [a_min, a_max], whose curvature exceeds kappa_max, or
    that pass through a cusp (speed collapses mid-segment and recovers).
    Acceleration and curvature are judged on the samples moving faster than
    0.1 m/s only.
    """
    n = max(int(round(spline.duration / dt)), 1)
    ts = np.arange(n + 1) * dt
    vx, vy = spline.velocity(ts)
    speed = np.hypot(vx, vy)
    if speed.max() > limits.v_max + FEASIBILITY_EPS:
        return False
    # cusp: movement resumes after the speed collapses mid-segment
    if n > 1 and speed[0] > 0.25 and speed[-1] > 0.25 and speed[1:-1].min() < 1e-3:
        return False
    moving = speed > 0.1
    if not moving.all():
        if not moving.any():
            return True
        ts, vx, vy, speed = ts[moving], vx[moving], vy[moving], speed[moving]
    ax, ay = spline.acceleration(ts)
    a_lon = (vx * ax + vy * ay) / speed
    if a_lon.max() > limits.a_max + FEASIBILITY_EPS or a_lon.min() < limits.a_min - FEASIBILITY_EPS:
        return False
    kappa = (vx * ay - vy * ax) / speed**3
    return bool(np.abs(kappa).max() <= limits.kappa_max + FEASIBILITY_EPS)


@dataclass(frozen=True)
class SamplerConfig:
    accel_grid: tuple = (-4.0, -2.0, 0.0, 2.0)
    yaw_rate_grid: tuple = (-0.3, -0.1, 0.0, 0.1, 0.3)
    speed_grid: tuple = (2.0, 6.0, 10.0, 14.0)
    lateral_offsets: tuple = (-1.0, 0.0, 1.0)
    max_children: int = 4
    limits: DynamicsLimits = field(default_factory=DynamicsLimits)

    def __post_init__(self):
        for name in ("accel_grid", "yaw_rate_grid", "speed_grid", "lateral_offsets"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.max_children < 1:
            raise ValueError("max_children must be >= 1")


def sample_terminals(
    current: AgentState,
    lane_map: LaneGraph | None,
    stage_duration: float,
    config: SamplerConfig,
) -> list:
    """Candidate terminal states reachable within one stage.

    Union of constant accel/yaw-rate rollout endpoints and lane-centerline
    targets, deduplicated within (0.1 m, 0.05 rad, 0.1 m/s). The rollout
    endpoints of the whole (accel, yaw-rate) grid come from one
    integrate_unicycle_grid call over the stage, which steps at most 0.1 s at
    a time; each equals the integrate_unicycle endpoint of its input.
    """
    limits = config.limits
    accels = [a for a in config.accel_grid if limits.a_min <= a <= limits.a_max]
    yaw_rates = [omega for omega in config.yaw_rate_grid if abs(omega) <= limits.omega_max]
    candidates = []
    for row in integrate_unicycle_grid(current, accels, yaw_rates, stage_duration, limits):
        candidates += row

    # a lane target needs a target speed and a lateral offset
    if lane_map is not None and config.speed_grid and config.lateral_offsets:
        for lane in lane_map.lanes:
            arc, lat, _ = project_to_lane((current.x, current.y), lane)
            if abs(lat) > LANE_SEARCH_RADIUS:
                continue
            for v_t in config.speed_grid:
                v_t = min(max(v_t, 0.0), limits.v_max)
                advance = 0.5 * (current.v + v_t) * stage_duration
                if advance < 0.5:
                    continue
                px, py, heading = lane_point_at(lane, arc + advance)
                nx, ny = -math.sin(heading), math.cos(heading)
                for off in config.lateral_offsets:
                    candidates.append(
                        AgentState(px + off * nx, py + off * ny, v_t, heading)
                    )

    kept = []
    for cand in candidates:
        dup = False
        for k in kept:
            if (
                abs(cand.x - k.x) <= DEDUPE_POS_TOL
                and abs(cand.y - k.y) <= DEDUPE_POS_TOL
                and abs(wrap_angle(cand.psi - k.psi)) <= DEDUPE_PSI_TOL
                and abs(cand.v - k.v) <= DEDUPE_V_TOL
            ):
                dup = True
                break
        if not dup:
            kept.append(cand)
    return kept


@dataclass(frozen=True)
class TreeNode:
    id: int
    stage: int
    parent_id: int | None
    segment: Trajectory | None


@dataclass(frozen=True)
class TrajectoryTree:
    """Staged tree of ego trajectory segments; node 0 is the root."""

    nodes: tuple
    schedule: StageSchedule
    truncated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        by_id = {n.id: n for n in self.nodes}
        object.__setattr__(self, "_by_id", by_id)
        kids: dict = {n.id: [] for n in self.nodes}
        for n in self.nodes:
            if n.parent_id is not None:
                kids[n.parent_id].append(n.id)
        object.__setattr__(self, "_children", {k: tuple(v) for k, v in kids.items()})
        by_stage: dict = {}
        for n in self.nodes:
            by_stage.setdefault(n.stage, []).append(n)
        object.__setattr__(self, "_by_stage", by_stage)

    @property
    def root_id(self) -> int:
        return 0

    def node(self, node_id: int) -> TreeNode:
        return self._by_id[node_id]

    def children(self, node_id: int) -> tuple:
        return self._children[node_id]

    def stage_nodes(self, stage: int) -> list:
        """Nodes of one stage in `nodes` order (a fresh list)."""
        return list(self._by_stage.get(stage, ()))

    def leaves(self) -> list:
        return self.stage_nodes(self.max_stage)

    @property
    def max_stage(self) -> int:
        return max(self._by_stage)

    def path_to(self, node_id: int) -> tuple:
        """Root-to-node id sequence."""
        path = []
        cur = node_id
        while cur is not None:
            path.append(cur)
            cur = self._by_id[cur].parent_id
        return tuple(reversed(path))

    def validate(self):
        roots = [n for n in self.nodes if n.parent_id is None]
        if len(roots) != 1 or roots[0].id != 0 or roots[0].stage != 0:
            raise ValueError("tree must have exactly one root with id 0 at stage 0")
        for n in self.nodes:
            if n.parent_id is None:
                continue
            parent = self._by_id[n.parent_id]
            if n.stage != parent.stage + 1:
                raise ValueError(f"node {n.id} stage is not parent stage + 1")
            if n.segment is not None and parent.segment is not None:
                pe, cs = parent.segment.end, n.segment.start
                if math.hypot(pe.x - cs.x, pe.y - cs.y) > 1e-9:
                    raise ValueError(f"node {n.id} segment does not start at parent endpoint")


def _node_rng(seed: int, node_id: int) -> np.random.Generator:
    # keyed per node so parallel expansion order cannot change the draw
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(node_id,)))


def grow_tree(
    root_state: AgentState,
    lane_map: LaneGraph | None,
    schedule: StageSchedule,
    config: SamplerConfig,
    seed: int,
) -> TrajectoryTree:
    """Stage-by-stage tree growth with feasibility filtering and children caps.

    The root carries the current state. When feasible children exceed
    max_children, a seeded per-node draw keeps exactly max_children. A stage
    with zero feasible children for every leaf truncates the tree and sets the
    `truncated` flag. Only nodes on a path from the root to the last stage
    reached are kept, with their ids: a node whose descendants all die out
    before that stage is dropped.
    """
    dt = schedule.dt
    root_seg = Trajectory(t0=0.0, dt=dt, samples=(root_state,))
    nodes = [TreeNode(id=0, stage=0, parent_id=None, segment=root_seg)]
    frontier = [nodes[0]]
    next_id = 1
    truncated = False

    for stage in range(1, schedule.num_stages + 1):
        duration = schedule.stage_durations[stage]
        t0 = schedule.stage_start(stage)
        new_frontier = []
        # nodes within a stage are independent; expansion could run in parallel
        for parent in frontier:
            start = parent.segment.end
            survivors = []
            for term in sample_terminals(start, lane_map, duration, config):
                spline = fit_spline(start, term, duration, dt)
                if not segment_feasible(spline, config.limits, dt):
                    continue
                survivors.append((term, spline))
            if len(survivors) > config.max_children:
                rng = _node_rng(seed, parent.id)
                keep = sorted(rng.choice(len(survivors), size=config.max_children, replace=False))
                survivors = [survivors[k] for k in keep]
            for term, spline in survivors:
                seg = spline_to_trajectory(spline, start, term, dt, t0)
                child = TreeNode(id=next_id, stage=stage, parent_id=parent.id, segment=seg)
                nodes.append(child)
                new_frontier.append(child)
                next_id += 1
        if not new_frontier:
            truncated = True
            break
        frontier = new_frontier

    live = {n.id for n in frontier}
    for n in reversed(nodes):  # children come after their parents
        if n.id in live and n.parent_id is not None:
            live.add(n.parent_id)
    nodes = [n for n in nodes if n.id in live]
    tree = TrajectoryTree(nodes=tuple(nodes), schedule=schedule, truncated=truncated)
    tree.validate()
    return tree
