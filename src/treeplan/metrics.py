"""Closed-loop evaluation metrics: crash/offroad rates, KDE coverage, ADE/FDE."""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyTrace, HorizonMismatch
from .prediction import ScenarioTree
from .sim import SimTrace

# default threshold puts the covered disk of a single visited point at ~13 cells
DEFAULT_BANDWIDTH = 2.0
DEFAULT_CELL = 1.0
DEFAULT_THRESHOLD = 0.0237


def crash_and_offroad_rates(trace: SimTrace):
    """Fractions of time steps with a collision event / an offroad event."""
    if not trace.steps:
        raise EmptyTrace("trace has no steps")
    n = len(trace.steps)
    crashes = sum(1 for s in trace.steps if s["events"]["collision"])
    offroad = sum(1 for s in trace.steps if s["events"]["offroad"])
    return crashes / n, offroad / n


def kde_coverage(
    trace: SimTrace,
    bandwidth: float = DEFAULT_BANDWIDTH,
    cell: float = DEFAULT_CELL,
    threshold: float = DEFAULT_THRESHOLD,
) -> int:
    """Cells of a uniform grid where the position-kernel density clears threshold.

    Gaussian kernels are summed over the distinct visited ego positions (not
    averaged, so extending a trace never lowers density anywhere) on a grid
    covering the visited bounding box padded by 3 bandwidths.
    """
    if bandwidth <= 0 or cell <= 0:
        raise ValueError("bandwidth and cell must be positive")
    if not trace.steps:
        raise EmptyTrace("trace has no steps")
    pts = {(s["ego"]["x"], s["ego"]["y"]) for s in trace.steps}
    pts = np.array(sorted(pts))
    pad = 3.0 * bandwidth
    x0, y0 = pts.min(axis=0) - pad
    x1, y1 = pts.max(axis=0) + pad
    # grid anchored at the global origin so extended traces reuse cell centers
    gx = cell * np.arange(math.floor(x0 / cell), math.ceil(x1 / cell) + 1)
    gy = cell * np.arange(math.floor(y0 / cell), math.ceil(y1 / cell) + 1)
    norm = 1.0 / (2.0 * math.pi * bandwidth**2)
    # the kernel factors into x and y parts, so the (y, x) grid density is one product
    ex = np.exp(-((gx[None, :] - pts[:, :1]) ** 2) / (2.0 * bandwidth**2))
    ey = np.exp(-((gy[None, :] - pts[:, 1:]) ** 2) / (2.0 * bandwidth**2))
    density = norm * (ey.T @ ex)
    return int(np.count_nonzero(density >= threshold))


def ade_fde(predicted: ScenarioTree, realized: dict):
    """Mean and final displacement error, averaged uniformly over modes.

    realized maps agent_id -> Trajectory covering the prediction horizon.
    """
    mode_ades, mode_fdes = [], []
    for path, _prob in predicted.leaf_paths_with_probability():
        chain = [predicted.nodes[path[:k]] for k in range(1, len(path) + 1)]
        agent_ades, agent_fdes = [], []
        agent_ids = sorted(predicted.root.agent_trajectories)
        for aid in agent_ids:
            if aid not in realized:
                raise HorizonMismatch(f"agent {aid} missing from realized trajectories")
            errs = []
            for node in chain:
                traj = node.agent_trajectories[aid]
                for k, s in enumerate(traj.samples):
                    t = traj.t0 + k * traj.dt
                    if realized[aid].t_end + 1e-9 < t:
                        raise HorizonMismatch(f"realized trajectory of {aid} ends before {t}")
                    r = realized[aid].state_at(t)
                    errs.append(math.hypot(s.x - r.x, s.y - r.y))
            if errs:
                agent_ades.append(sum(errs) / len(errs))
                agent_fdes.append(errs[-1])
        if agent_ades:
            mode_ades.append(sum(agent_ades) / len(agent_ades))
            mode_fdes.append(sum(agent_fdes) / len(agent_fdes))
    if not mode_ades:
        return 0.0, 0.0
    return sum(mode_ades) / len(mode_ades), sum(mode_fdes) / len(mode_fdes)
