"""Stage-cost tensors over same-stage (ego node, scenario node) pairs.

The running cost has four terms: collision proximity (exponential in
clearance, 1 at contact), lane keeping (lateral offset and heading error),
goal progress (remaining distance, normalized), and ride comfort (squared
accel and yaw rate from finite differences). A stage cost integrates it with
the trapezoid rule over the aligned ego/environment samples.

The tensor is built one stage at a time: the ego terms of all the stage's ego
nodes in one pass, and one clearance call per agent over every (ego node,
distinct agent trajectory) pair. Scenario nodes share trajectory objects, so
a trajectory is indexed once per stage by identity, however many nodes and
modes hold it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ScheduleMismatch
from .prediction import ECPredictionEnsemble, ScenarioTree
from .sampler import TrajectoryTree
from .world import (
    Footprint,
    LaneGraph,
    Trajectory,
    obb_clearance,
    project_to_lane_batch,
    wrap_angles,
)

DEFAULT_FOOTPRINT = Footprint(length=4.6, width=1.8)


@dataclass(frozen=True)
class CostWeights:
    w_collision: float = 10.0
    w_lane: float = 0.1
    w_goal: float = 1.0
    w_comfort: float = 0.05
    collision_scale: float = 2.0
    goal: tuple | None = None  # target point (x, y)

    def __post_init__(self):
        for name in ("w_collision", "w_lane", "w_goal", "w_comfort"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.collision_scale <= 0:
            raise ValueError("collision_scale must be positive")
        if self.goal is not None:
            object.__setattr__(self, "goal", (float(self.goal[0]), float(self.goal[1])))


def _lane_errors_batch(xs, ys, psis, lane_map: LaneGraph):
    """Per-sample (lateral offset, heading error) against the nearest lane,
    for sample arrays of any one shape."""
    shape = np.shape(xs)
    pts = np.column_stack([np.ravel(xs), np.ravel(ys)])
    psis = np.ravel(psis)
    best_lat = np.full(len(pts), np.inf)
    best_herr = np.zeros(len(pts))
    for lane in lane_map.lanes:
        _, lat, heading = project_to_lane_batch(pts, lane)
        better = np.abs(lat) < np.abs(best_lat)
        best_lat = np.where(better, lat, best_lat)
        herr = np.arctan2(np.sin(psis - heading), np.cos(psis - heading))
        best_herr = np.where(better, herr, best_herr)
    return best_lat.reshape(shape), best_herr.reshape(shape)


def _ego_terms(arrays, dt, lane_map, weights, goal_norm):
    """Per-sample lane, goal and comfort terms, which depend on the ego alone.

    arrays are (x, y, v, psi), each (..., n) over the samples of a segment.
    """
    xs, ys, vs, psis = arrays
    per_sample = np.zeros(np.shape(xs))
    if weights.w_lane > 0 and lane_map is not None and lane_map.lanes:
        lat, herr = _lane_errors_batch(xs, ys, psis, lane_map)
        per_sample += weights.w_lane * (lat**2 + herr**2)

    if weights.w_goal > 0 and weights.goal is not None:
        gd = np.hypot(xs - weights.goal[0], ys - weights.goal[1])
        per_sample += weights.w_goal * gd / max(goal_norm, 1e-9)

    if weights.w_comfort > 0:
        acc = np.diff(vs, axis=-1) / dt
        yaw = wrap_angles(np.diff(psis, axis=-1)) / dt
        acc = np.append(acc, acc[..., -1:], axis=-1)
        yaw = np.append(yaw, yaw[..., -1:], axis=-1)
        per_sample += weights.w_comfort * (acc**2 + yaw**2)
    return per_sample


def _support(traj: Trajectory) -> str:
    return f"{len(traj.samples)} samples at dt {traj.dt}"


def _costs_of_stage(
    stage: int,
    ego_nodes: list,
    reads: list,
    lane_map: LaneGraph | None,
    weights: CostWeights,
    ego_fp: Footprint,
    agent_fps: dict,
    goal_norm: float,
) -> np.ndarray:
    """Stage costs of the E ego nodes of one stage, each against the scenario
    nodes it reads (reads[e]); one row per pair, ego-major, shape (R,).

    The ego terms come from one (E, n) pass. Each agent's distinct trajectory
    objects over all rows form K columns, and one clearance call per agent
    covers every (ego node, column) pair; a row then adds its agents' terms to
    its ego terms in the node's own agent order.
    """
    seg0 = ego_nodes[0].segment
    n, dt = len(seg0.samples), seg0.dt
    for ego in ego_nodes:
        if len(ego.segment.samples) != n or abs(ego.segment.dt - dt) > 1e-12:
            raise ScheduleMismatch(
                f"stage {stage}: ego node {ego.id} has {_support(ego.segment)}, "
                f"ego node {ego_nodes[0].id} has {_support(seg0)}"
            )

    # aid -> {id(trajectory): (column, trajectory)}; the trajectory is held so
    # its id cannot be reused while the index lives
    columns: dict = {}
    row_ego = []  # ego index of each row
    groups: dict = {}  # agent order -> [(row, column of each agent)]
    for e, (ego, nodes) in enumerate(zip(ego_nodes, reads)):
        for node in nodes:
            cols = []
            for aid, traj in node.agent_trajectories.items():
                index = columns.setdefault(aid, {})
                hit = index.get(id(traj))
                if hit is None:
                    if len(traj.samples) != n or abs(traj.dt - dt) > 1e-12:
                        raise ScheduleMismatch(
                            f"stage {stage}, ego node {ego.id}, scenario node {node.path}: agent {aid} "
                            f"has {_support(traj)}, the ego segment {_support(ego.segment)}"
                        )
                    hit = index[id(traj)] = (len(index), traj)
                cols.append(hit[0])
            groups.setdefault(tuple(node.agent_trajectories), []).append((len(row_ego), cols))
            row_ego.append(e)
    if n < 2 or not row_ego:
        return np.zeros(len(row_ego))

    # (E, n, 4) -> x, y, v, psi, each (E, n)
    block = np.array([[(s.x, s.y, s.v, s.psi) for s in ego.segment.samples] for ego in ego_nodes])
    xs, ys, vs, psis = block[..., 0], block[..., 1], block[..., 2], block[..., 3]
    row_ego = np.array(row_ego)
    per_sample = _ego_terms((xs, ys, vs, psis), dt, lane_map, weights, goal_norm)[row_ego]

    if weights.w_collision > 0:
        collision = {}  # aid -> (E, K, n) term of each ego node against each column
        for aid, index in columns.items():
            # (K, 4, n): x, y, v, psi of each distinct trajectory
            a = np.array([traj.arrays() for _, traj in index.values()])
            fp = agent_fps.get(aid, DEFAULT_FOOTPRINT)
            d = obb_clearance(xs[:, None], ys[:, None], psis[:, None], ego_fp,
                              a[None, :, 0], a[None, :, 1], a[None, :, 3], fp)
            collision[aid] = weights.w_collision * np.exp(-d / weights.collision_scale)
        for aids, members in groups.items():
            rows = [row for row, _ in members]
            for i, aid in enumerate(aids):
                per_sample[rows] += collision[aid][row_ego[rows], [cols[i] for _, cols in members]]

    return np.trapezoid(per_sample, dx=dt, axis=-1)


@dataclass(frozen=True)
class CostTensor:
    """Stage costs for same-stage (ego node, scenario node) pairs.

    Keys are (ego_node_id, scenario_node_path).
    """

    values: dict = field(default_factory=dict)

    def get(self, ego_id: int, scen_path: tuple) -> float:
        return self.values[(ego_id, scen_path)]


def _goal_norm(tree: TrajectoryTree, weights: CostWeights) -> float:
    if weights.goal is None:
        return 1.0
    root = tree.node(tree.root_id).segment.start
    return max(1.0, math.hypot(root.x - weights.goal[0], root.y - weights.goal[1]))


def build_cost_tensor(
    tree: TrajectoryTree,
    scenario: ScenarioTree | ECPredictionEnsemble,
    lane_map: LaneGraph | None,
    weights: CostWeights,
    ego_fp: Footprint = DEFAULT_FOOTPRINT,
    agent_fps: dict | None = None,
) -> CostTensor:
    """Costs for every ego node against the same-stage nodes of its scenario tree.

    scenario.tree_for_ego_node resolves the tree: one shared ScenarioTree, or
    for an ensemble the tree of the first mode through the node; causal
    consistency makes that choice immaterial. All ego nodes of a stage are
    evaluated in one batch.
    """
    norm = _goal_norm(tree, weights)
    values = {}
    for stage in range(tree.max_stage + 1):
        ego_nodes = tree.stage_nodes(stage)
        if not ego_nodes:
            continue
        reads = [scenario.tree_for_ego_node(ego.id).stage_nodes(stage) for ego in ego_nodes]
        costs = _costs_of_stage(stage, ego_nodes, reads, lane_map, weights, ego_fp, agent_fps or {}, norm)
        keys = ((ego.id, scen.path) for ego, nodes in zip(ego_nodes, reads) for scen in nodes)
        values.update(zip(keys, costs.tolist()))
    return CostTensor(values)


build_cost_tensor_ec = build_cost_tensor
