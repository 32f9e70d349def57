"""Stage-cost tensors over same-stage (ego node, scenario node) pairs.

The running cost has four terms: collision proximity (exponential in
clearance, 1 at contact), lane keeping (lateral offset and heading error),
goal progress (remaining distance, normalized), and ride comfort (squared
accel and yaw rate from finite differences). A stage cost integrates it with
the trapezoid rule over the aligned ego/environment samples; each ego node is
evaluated against all same-stage scenario nodes in one batch.
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
    """Per-sample (lateral offset, heading error) against the nearest lane."""
    pts = np.column_stack([xs, ys])
    best_lat = np.full(len(pts), np.inf)
    best_herr = np.zeros(len(pts))
    for lane in lane_map.lanes:
        _, lat, heading = project_to_lane_batch(pts, lane.centerline)
        better = np.abs(lat) < np.abs(best_lat)
        best_lat = np.where(better, lat, best_lat)
        herr = np.arctan2(np.sin(psis - heading), np.cos(psis - heading))
        best_herr = np.where(better, herr, best_herr)
    return best_lat, best_herr


def _ego_terms(arrays, dt, lane_map, weights, goal_norm):
    """Per-sample lane, goal and comfort terms, which depend on the ego alone."""
    xs, ys, vs, psis = arrays
    per_sample = np.zeros(len(xs))
    if weights.w_lane > 0 and lane_map is not None and lane_map.lanes:
        lat, herr = _lane_errors_batch(xs, ys, psis, lane_map)
        per_sample += weights.w_lane * (lat**2 + herr**2)

    if weights.w_goal > 0 and weights.goal is not None:
        gd = np.hypot(xs - weights.goal[0], ys - weights.goal[1])
        per_sample += weights.w_goal * gd / max(goal_norm, 1e-9)

    if weights.w_comfort > 0:
        acc = np.diff(vs) / dt
        yaw = wrap_angles(np.diff(psis)) / dt
        acc = np.append(acc, acc[-1])
        yaw = np.append(yaw, yaw[-1])
        per_sample += weights.w_comfort * (acc**2 + yaw**2)
    return per_sample


class _ArrayCache:
    """Trajectory.arrays() built once per trajectory object within one build."""

    def __init__(self):
        self._arrays = {}

    def __call__(self, traj: Trajectory):
        hit = self._arrays.get(id(traj))
        if hit is None:
            # keep traj alive so its id is not reused while the cache lives
            hit = self._arrays[id(traj)] = (traj, traj.arrays())
        return hit[1]


def _stage_costs(
    ego_segment: Trajectory,
    env_nodes,
    lane_map: LaneGraph | None,
    weights: CostWeights,
    ego_fp: Footprint,
    agent_fps: dict,
    goal_norm: float,
    arrays: _ArrayCache,
) -> np.ndarray:
    """Stage costs of one ego segment against S same-stage scenario nodes.

    Each agent's samples are stacked over the nodes that carry it into (S, n)
    arrays, so one clearance call covers the agent in every node; terms add up
    per node in the node's own agent order. Returns shape (S,).
    """
    n = len(ego_segment.samples)
    dt = ego_segment.dt
    for node in env_nodes:
        for aid, traj in node.agent_trajectories.items():
            if len(traj.samples) != n or abs(traj.dt - dt) > 1e-12:
                raise ScheduleMismatch(f"agent {aid} support differs from ego segment")
    if n < 2:
        return np.zeros(len(env_nodes))

    xs, ys, vs, psis = arrays(ego_segment)
    per_sample = np.tile(_ego_terms((xs, ys, vs, psis), dt, lane_map, weights, goal_norm), (len(env_nodes), 1))

    if weights.w_collision > 0:
        groups: dict = {}  # agent order -> rows of the nodes that share it
        for row, node in enumerate(env_nodes):
            groups.setdefault(tuple(node.agent_trajectories), []).append(row)
        for aids, rows in groups.items():
            for aid in aids:
                # (S, 4, n): x, y, v, psi of the agent in each node
                a = np.array([arrays(env_nodes[r].agent_trajectories[aid]) for r in rows])
                fp = agent_fps.get(aid, DEFAULT_FOOTPRINT)
                d = obb_clearance(xs, ys, psis, ego_fp, a[:, 0], a[:, 1], a[:, 3], fp)
                per_sample[rows] += weights.w_collision * np.exp(-d / weights.collision_scale)

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
    consistency makes that choice immaterial. Each ego node is evaluated
    against all scenario nodes of its stage at once.
    """
    norm = _goal_norm(tree, weights)
    arrays = _ArrayCache()
    values = {}
    for ego_node in tree.nodes:
        scen_nodes = scenario.tree_for_ego_node(ego_node.id).stage_nodes(ego_node.stage)
        costs = _stage_costs(
            ego_node.segment, scen_nodes, lane_map, weights, ego_fp, agent_fps or {}, norm, arrays
        )
        values.update(zip(((ego_node.id, scen.path) for scen in scen_nodes), costs.tolist()))
    return CostTensor(values)


build_cost_tensor_ec = build_cost_tensor
