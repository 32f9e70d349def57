"""Correctness checks on treeplan's outputs, written apart from the package.

Nothing here calls treeplan code: the geometry (rectangle overlap and
clearance, lane projection), the stage-cost integral and the backward
recursion are computed again from the raw fields of the results. Each check
raises :class:`CheckFailed` naming what disagrees.
"""

from __future__ import annotations

import math
from collections import defaultdict

DP_TOL = 1e-9  # relative to max(1, |value|)
COST_TOL = 1e-7  # relative to max(1, |cost|); the two integrals sum in different orders
SPEED_TOL = 1e-6
POS_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _wrap(angle: float) -> float:
    return math.atan2(math.sin(angle), math.cos(angle))


# ---------------------------------------------------------------------------
# geometry


def rect_corners(x, y, psi, length, width):
    """Corners of a rectangle centred at (x, y) with heading psi, in order."""
    c, s = math.cos(psi), math.sin(psi)
    hl, hw = 0.5 * length, 0.5 * width
    return [(x + dx * c - dy * s, y + dx * s + dy * c) for dx, dy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw))]


def rects_overlap(a, b) -> bool:
    """Separating-axis test on the edge normals; touching counts as overlap."""
    for poly in (a, b):
        for i in (0, 1):
            (x1, y1), (x2, y2) = poly[i], poly[i + 1]
            nx, ny = y2 - y1, x1 - x2
            pa = [nx * px + ny * py for px, py in a]
            pb = [nx * px + ny * py for px, py in b]
            if max(pa) < min(pb) or max(pb) < min(pa):
                return False
    return True


def _point_segment(px, py, ax, ay, bx, by):
    dx, dy = bx - ax, by - ay
    t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
    t = min(1.0, max(0.0, t))
    return math.hypot(px - ax - t * dx, py - ay - t * dy)


def rect_clearance(a, b) -> float:
    """Distance between two rectangles given by corners; 0 when they overlap."""
    if rects_overlap(a, b):
        return 0.0
    best = math.inf
    for pts, poly in ((a, b), (b, a)):
        for i in range(4):
            (ax, ay), (bx, by) = poly[i], poly[(i + 1) % 4]
            for px, py in pts:
                best = min(best, _point_segment(px, py, ax, ay, bx, by))
    return best


def lane_errors(x, y, psi, centerlines):
    """(lateral offset, heading error) against the nearest lane centreline."""
    best_lat, best_herr = math.inf, 0.0
    for cl in centerlines:
        seg_d, lat, heading = math.inf, 0.0, 0.0
        for (ax, ay), (bx, by) in zip(cl[:-1], cl[1:]):
            dx, dy = bx - ax, by - ay
            t = min(1.0, max(0.0, ((x - ax) * dx + (y - ay) * dy) / (dx * dx + dy * dy)))
            rx, ry = x - ax - t * dx, y - ay - t * dy
            d = math.hypot(rx, ry)
            if d < seg_d:
                h = math.atan2(dy, dx)
                seg_d, lat, heading = d, -math.sin(h) * rx + math.cos(h) * ry, h
        if abs(lat) < abs(best_lat):
            best_lat, best_herr = lat, _wrap(psi - heading)
    return best_lat, best_herr


# ---------------------------------------------------------------------------
# structure helpers


def _ego_children(tree) -> dict:
    kids = defaultdict(list)
    for n in tree.nodes:
        if n.parent_id is not None:
            kids[n.parent_id].append(n.id)
    return {k: sorted(v) for k, v in kids.items()}


def _ego_leaf_paths(tree) -> list:
    parent = {n.id: n.parent_id for n in tree.nodes}
    kids = _ego_children(tree)
    paths = []
    for n in tree.nodes:
        if n.id in kids:
            continue
        path, cur = [], n.id
        while cur is not None:
            path.append(cur)
            cur = parent[cur]
        paths.append(tuple(reversed(path)))
    return sorted(paths)


def _scen_children(nodes: dict) -> dict:
    """parent path -> [(child path, probability)] ordered by branch index."""
    kids = defaultdict(list)
    for path, node in nodes.items():
        if path:
            kids[path[:-1]].append((path, node.branch_probability))
    return {k: sorted(v) for k, v in kids.items()}


def last_mode_trees(ensemble) -> dict:
    """ego node id -> scenario tree of the *last* mode whose path passes it.

    treeplan resolves an ego node through the first such mode; causal
    consistency makes the two agree, so resolving differently checks it too.
    """
    out = {}
    for mode in ensemble.modes:
        for nid in mode.ego_path:
            out[nid] = ensemble.trees[mode.mode_id]
    return out


# ---------------------------------------------------------------------------
# trees


def check_ego_tree(tree, schedule, max_children: int, v_max: float, root_state):
    n_stages = len(schedule.stage_durations) - 1
    by_id = {n.id: n for n in tree.nodes}
    kids = _ego_children(tree)
    r = by_id[0].segment.samples[0]
    if (r.x, r.y, r.v) != (root_state.x, root_state.y, root_state.v):
        raise CheckFailed("ego tree: root does not start at the ego state")
    for n in tree.nodes:
        seg = n.segment.samples
        want = int(round(schedule.stage_durations[n.stage] / schedule.dt)) + 1
        if len(seg) != want:
            raise CheckFailed(f"ego tree: node {n.id} has {len(seg)} samples, expected {want}")
        if any(s.v > v_max + SPEED_TOL for s in seg):
            raise CheckFailed(f"ego tree: node {n.id} exceeds v_max")
        if len(kids.get(n.id, ())) > max_children:
            raise CheckFailed(f"ego tree: node {n.id} has more than {max_children} children")
        if n.stage < n_stages and not kids.get(n.id):
            raise CheckFailed(f"ego tree: node {n.id} at stage {n.stage} has no children")
        if n.parent_id is not None:
            parent = by_id[n.parent_id]
            if n.stage != parent.stage + 1:
                raise CheckFailed(f"ego tree: node {n.id} skips a stage")
            end, start = parent.segment.samples[-1], seg[0]
            if abs(end.x - start.x) > POS_TOL or abs(end.y - start.y) > POS_TOL:
                raise CheckFailed(f"ego tree: node {n.id} does not start at its parent's end")


def check_scenario_trees(ensemble, tree, branching_factor: int, n_stages: int):
    if sorted(m.ego_path for m in ensemble.modes) != _ego_leaf_paths(tree):
        raise CheckFailed("scenario shape: modes are not the ego tree's root-to-leaf paths")
    for mode in ensemble.modes:
        nodes = ensemble.trees[mode.mode_id].nodes
        if nodes[()].branch_probability != 1.0:
            raise CheckFailed(f"scenario shape: mode {mode.mode_id} root probability is not 1")
        kids = _scen_children(nodes)
        for parent, ch in kids.items():
            if parent not in nodes or [p[-1] for p, _ in ch] != list(range(len(ch))):
                raise CheckFailed(f"scenario shape: mode {mode.mode_id} children of {parent} are not 0..k-1")
            if len(ch) > branching_factor:
                raise CheckFailed(f"scenario shape: mode {mode.mode_id} node {parent} has {len(ch)} children")
            if abs(sum(p for _, p in ch) - 1.0) > 1e-9:
                raise CheckFailed(f"scenario shape: mode {mode.mode_id} siblings under {parent} do not sum to 1")
        leaf_total = 0.0
        for path in nodes:
            if path in kids:
                continue
            if len(path) != n_stages:
                raise CheckFailed(f"scenario shape: mode {mode.mode_id} leaf {path} is not at the last stage")
            prob = 1.0
            for k in range(1, len(path) + 1):
                prob *= nodes[path[:k]].branch_probability
            leaf_total += prob
        if abs(leaf_total - 1.0) > 1e-9:
            raise CheckFailed(f"scenario shape: mode {mode.mode_id} leaf probabilities sum to {leaf_total}")


def _stage_snapshot(nodes: dict, stage: int):
    out = []
    for path in sorted(p for p in nodes if len(p) == stage):
        node = nodes[path]
        trajs = tuple(
            (aid, tuple((s.x, s.y, s.v, s.psi) for s in node.agent_trajectories[aid].samples))
            for aid in sorted(node.agent_trajectories)
        )
        out.append((path, node.branch_probability, trajs))
    return out


def check_causal_consistency(ensemble, n_stages: int):
    """Modes sharing the ego prefix through stage s have equal nodes at s."""
    for stage in range(n_stages + 1):
        reference = {}
        for mode in ensemble.modes:
            prefix = mode.ego_path[: stage + 1]
            snap = _stage_snapshot(ensemble.trees[mode.mode_id].nodes, stage)
            ref = reference.setdefault(prefix, (mode.mode_id, snap))
            if snap != ref[1]:
                raise CheckFailed(
                    f"causal consistency: modes {ref[0]} and {mode.mode_id} differ at stage {stage}"
                )


# ---------------------------------------------------------------------------
# cost tensor


def expected_cost_keys(tree, ensemble) -> set:
    trees = last_mode_trees(ensemble)
    return {
        (n.id, path) for n in tree.nodes for path in trees[n.id].nodes if len(path) == n.stage
    }


def recompute_stage_cost(ego_samples, agent_trajs: dict, dt, inputs, goal_norm) -> float:
    """Trapezoid integral of the running cost, from the raw samples."""
    w = inputs.weights
    n = len(ego_samples)
    if n < 2:
        return 0.0
    ego_l, ego_w = inputs.ego_fp
    f = []
    for k, e in enumerate(ego_samples):
        c = 0.0
        if w.w_collision > 0:
            ego_box = rect_corners(e.x, e.y, e.psi, ego_l, ego_w)
            for aid, samples in agent_trajs.items():
                a = samples[k]
                al, aw = inputs.agent_fps[aid]
                d = rect_clearance(ego_box, rect_corners(a.x, a.y, a.psi, al, aw))
                c += w.w_collision * math.exp(-d / w.collision_scale)
        if w.w_lane > 0 and inputs.centerlines:
            lat, herr = lane_errors(e.x, e.y, e.psi, inputs.centerlines)
            c += w.w_lane * (lat * lat + herr * herr)
        if w.w_goal > 0 and w.goal is not None:
            c += w.w_goal * math.hypot(e.x - w.goal[0], e.y - w.goal[1]) / goal_norm
        j = min(k, n - 2)
        acc = (ego_samples[j + 1].v - ego_samples[j].v) / dt
        yaw = _wrap(ego_samples[j + 1].psi - ego_samples[j].psi) / dt
        c += w.w_comfort * (acc * acc + yaw * yaw)
        f.append(c)
    return dt * (sum(f) - 0.5 * (f[0] + f[-1]))


def check_cost_tensor(tree, ensemble, costs, inputs, sample_keys):
    """Key set exactly the same-stage pairs; sampled entries recomputed."""
    want = expected_cost_keys(tree, ensemble)
    if set(costs.values) != want:
        raise CheckFailed(f"cost tensor: {len(costs.values)} entries, expected {len(want)} pairs")
    trees = last_mode_trees(ensemble)
    by_id = {n.id: n for n in tree.nodes}
    root = by_id[0].segment.samples[0]
    goal = inputs.weights.goal
    goal_norm = max(1.0, math.hypot(root.x - goal[0], root.y - goal[1])) if goal else 1.0
    for ego_id, path in sample_keys:
        node = by_id[ego_id]
        scen = trees[ego_id].nodes[path]
        agents = {aid: t.samples for aid, t in scen.agent_trajectories.items()}
        got = costs.values[(ego_id, path)]
        want_c = recompute_stage_cost(node.segment.samples, agents, node.segment.dt, inputs, goal_norm)
        if not _close(got, want_c, COST_TOL):
            raise CheckFailed(f"cost tensor: entry {(ego_id, path)} is {got}, recomputed {want_c}")


def sample_cost_keys(costs, rng, k: int) -> list:
    """k entries of positive-duration stages, drawn with the given rng."""
    keys = sorted(key for key in costs.values if key[0] != 0)
    if len(keys) <= k:
        return keys
    return [keys[i] for i in sorted(rng.choice(len(keys), size=k, replace=False))]


# ---------------------------------------------------------------------------
# dynamic program and baselines


def check_policy(tree, ensemble, costs, values, policy, ncr, ncg):
    """Backward recursion, policy walk, dominance over every fixed path."""
    kids = _ego_children(tree)
    trees = last_mode_trees(ensemble)
    scen_kids = {nid: _scen_children(t.nodes) for nid, t in trees.items()}
    C = costs.values
    memo = {}

    def value(e, p):
        if (e, p) not in memo:
            cont = [
                sum(prob * value(k, q) for q, prob in scen_kids[k].get(p, ()))
                for k in kids.get(e, ())
            ]
            memo[(e, p)] = C[(e, p)] + (min(cont) if cont else 0.0)
        return memo[(e, p)]

    def walk(e, p):
        if e not in kids:
            return C[(e, p)]
        k = policy.pi[(e, p)]
        if k not in kids[e]:
            raise CheckFailed(f"policy: {(e, p)} chooses {k}, not a child of {e}")
        return C[(e, p)] + sum(prob * walk(k, q) for q, prob in scen_kids[k].get(p, ()))

    def path_cost(path, stage, p):
        c = C[(path[stage], p)]
        if stage == len(path) - 1:
            return c
        nxt = path[stage + 1]
        return c + sum(prob * path_cost(path, stage + 1, q) for q, prob in scen_kids[nxt].get(p, ()))

    root = value(0, ())
    got = values.V[(0, ())]
    if not _close(got, root, DP_TOL):
        raise CheckFailed(f"dp value: root value {got}, backward recursion gives {root}")
    walked = walk(0, ())
    if not _close(walked, root, DP_TOL):
        raise CheckFailed(f"policy: walking the policy costs {walked}, root value {root}")
    paths = {path: path_cost(path, 0, ()) for path in _ego_leaf_paths(tree)}
    best = min(paths.values())
    if root > best + DP_TOL * max(1.0, abs(best)):
        raise CheckFailed(f"dominance: root value {root} exceeds the best fixed path {best}")
    if tuple(ncr.path) not in paths or not _close(ncr.expected_cost, best, DP_TOL):
        raise CheckFailed(f"dominance: plan_ncr cost {ncr.expected_cost}, best fixed path {best}")
    if not _close(paths[tuple(ncr.path)], best, DP_TOL):
        raise CheckFailed("dominance: plan_ncr path is not a cheapest fixed path")
    if tuple(ncg.path) not in paths:
        raise CheckFailed("dominance: plan_ncg path is not a root-to-leaf ego path")
    return root


# ---------------------------------------------------------------------------
# closed-loop traces


def drivable_rect(drivable_area):
    """Bounds of the single axis-aligned drivable rectangle of a scenario."""
    if len(drivable_area) != 1:
        raise CheckFailed("offroad: expected one drivable rectangle")
    xs = sorted({float(p[0]) for p in drivable_area[0]})
    ys = sorted({float(p[1]) for p in drivable_area[0]})
    if len(drivable_area[0]) != 4 or len(xs) != 2 or len(ys) != 2:
        raise CheckFailed("offroad: drivable area is not an axis-aligned rectangle")
    return xs[0], xs[1], ys[0], ys[1]


def check_episode(trace, crash_rate, offroad_rate, ep):
    """One closed-loop trace against the configuration and the geometry.

    ep carries: total_duration, sim_dt, v_max, ego_state, ego_fp, agent_fps,
    rect (drivable rectangle bounds).
    """
    steps = trace.steps
    n = int(round(ep.total_duration / ep.sim_dt))
    if len(steps) != n:
        raise CheckFailed(f"trace: {len(steps)} steps, expected {n}")
    x0, x1, y0, y1 = ep.rect
    prev = ep.ego_state
    crashes = offroads = 0
    for k, step in enumerate(steps):
        if abs(step["t"] - (k + 1) * ep.sim_dt) > 1e-9:
            raise CheckFailed(f"trace: step {k} stamped {step['t']}")
        e = step["ego"]
        if math.hypot(e["x"] - prev["x"], e["y"] - prev["y"]) > ep.v_max * ep.sim_dt + 1e-6:
            raise CheckFailed(f"trace: ego moves faster than v_max at step {k}")
        prev = e
        box = rect_corners(e["x"], e["y"], e["psi"], *ep.ego_fp)
        hits = []
        for aid in sorted(step["agents"]):
            a = step["agents"][aid]
            if aid not in ep.agent_fps:
                raise CheckFailed(f"trace: unknown agent {aid}")
            if rects_overlap(box, rect_corners(a["x"], a["y"], a["psi"], *ep.agent_fps[aid])):
                hits.append(aid)
        events = step["events"]
        if hits != sorted(events["collision"]):
            raise CheckFailed(f"trace: collisions {events['collision']} at step {k}, geometry gives {hits}")
        off = any(not (x0 <= cx <= x1 and y0 <= cy <= y1) for cx, cy in box)
        if off != events["offroad"]:
            raise CheckFailed(f"trace: offroad {events['offroad']} at step {k}, geometry gives {off}")
        crashes += bool(hits)
        offroads += off
    if crash_rate != crashes / n or offroad_rate != offroads / n:
        raise CheckFailed(
            f"rates: reported ({crash_rate}, {offroad_rate}), counted ({crashes / n}, {offroads / n})"
        )
    return crashes


def check_rerun(first, second):
    if first.steps != second.steps or first.metadata != second.metadata:
        raise CheckFailed("rerun: the same episode gave a different trace")
