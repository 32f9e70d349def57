"""Digests of the planner's results, to show that two checkouts compute the same.

    python3 scripts/result_digest.py --cutin-seeds 100

Prints six sha256 digests, one per line:

- ``open-loop``: the nine seed-101 scenes of each of the ``dense-plan`` and
  ``deep-tree`` benchmark workloads, built by ``bench/workloads.py`` and
  planned once each: ego tree, modes, scenario nodes, cost tensor, V, Q, pi
  and the NCR and NCG plans;
- ``cut-in``: the closed-loop cut-in traces (``scenarios/cutin.json`` with
  ``configs/cutin_eval.json``) for episode seeds 0 .. N-1, each run with tpp,
  ncr and ncg;
- ``ec-verify``: 100 ``treeplan.verify.random_ec_instance`` draws from
  ``default_rng(1)``: ego tree, modes, scenario nodes and costs. These scenes
  have no lane map, so this line covers the predictor's straight-line
  rollouts and one- to three-stage ensembles;
- ``sampler``: 40 ``treeplan.sampler.grow_tree`` trees from ``default_rng(2)``
  draws of start state, sampler grids (several values on each axis), stage
  schedule and seed, three in four of them on a map of two lanes curving
  along a circle as polylines of many segments. The open-loop scenes are all
  straight lanes whose headings are exactly 0; this line sees the lane
  headings, lane targets and rollout endpoints of curved roads;
- ``prediction``: 30 ``treeplan.prediction.predict_ensemble`` calls from
  ``default_rng(3)`` draws on the ``sampler`` line's curved map: an ego tree
  grown on the curve, one to six agents at lateral offsets on and between
  the lanes (some standing still) near the ego, priors of which some make
  joint hypotheses tie exactly, and a branching factor of one to seven:
  modes and scenario nodes. No other line rolls agents out along a curved
  lane or sorts tied joint probabilities;
- ``world``: closed-loop episodes on a road that turns through a quarter
  circle, seeds 0 .. 5 with tpp, ncr and ncg: four agents (a cut-in, a slow
  leader, a fast follower and one far enough away to be despawned), the
  spawner on, stage advances between replans, and a drivable area of two
  polygons, one of them not convex; then 20 ``treeplan.sampler.grow_tree``
  trees from ``default_rng(4)`` start states on that road. The shipped
  cut-in episodes stay on straight lanes inside one rectangle and never
  spawn, despawn or leave the road; here every kind of event occurs.

Floats enter the digests as ``float.hex``, so a difference in the last bit
changes the digest. The package and the workloads are imported from the
checkout that holds this script; run it in each checkout and compare the
output.
"""

import argparse
import dataclasses
import hashlib
import math
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(1, str(REPO / "src"))
sys.path.insert(1, str(REPO / "bench"))

import numpy as np  # noqa: E402
import treeplan.config  # noqa: E402
import treeplan.prediction  # noqa: E402
import treeplan.sampler  # noqa: E402
import treeplan.sim  # noqa: E402
import treeplan.verify  # noqa: E402
import treeplan.world  # noqa: E402
import workloads  # noqa: E402

OPEN_LOOP_SEED = 101
OPEN_LOOP_WORKLOADS = ("dense-plan", "deep-tree")
EC_VERIFY_SEED = 1
EC_VERIFY_DRAWS = 100
SAMPLER_SEED = 2
SAMPLER_DRAWS = 40
CURVE_RADIUS = 60.0  # m, of the inner lane's centre line
PREDICTION_SEED = 3
PREDICTION_DRAWS = 30
# (maintain, brake, yield boost); the first two make tied joint hypotheses
PREDICTION_PRIORS = ((0.5, 0.5, 2.0), (0.6, 0.3, 2.0), (0.7, 0.3, 2.0))
WORLD_RADIUS = 40.0  # m, of the right lane's turn
WORLD_EPISODE_SEEDS = range(6)
WORLD_TREE_SEED = 4
WORLD_TREE_DRAWS = 20


def _tokens(obj):
    """Canonical text tokens of a result value."""
    if obj is None or isinstance(obj, (bool, str)):
        yield repr(obj)
    elif isinstance(obj, int):
        yield str(obj)
    elif isinstance(obj, float):
        yield float.hex(obj)
    elif isinstance(obj, (tuple, list)):
        yield "("
        for item in obj:
            yield from _tokens(item)
        yield ")"
    elif isinstance(obj, dict):
        yield "{"
        for key in sorted(obj, key=lambda k: "".join(_tokens(k))):
            yield from _tokens(key)
            yield ":"
            yield from _tokens(obj[key])
        yield "}"
    elif dataclasses.is_dataclass(obj):
        yield type(obj).__name__
        yield from _tokens({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    else:
        raise TypeError(f"no digest form for {type(obj).__name__}")


def _feed(h, obj):
    h.update(",".join(_tokens(obj)).encode())
    h.update(b"\n")


def open_loop_digest() -> str:
    h = hashlib.sha256()
    for name in OPEN_LOOP_WORKLOADS:
        work = workloads.make(name, OPEN_LOOP_SEED, REPO)
        for inp in work.inputs + [work.warm]:
            tree, ensemble, costs, values, policy, ncr, ncg = workloads.plan(inp)
            _feed(h, tree.nodes)
            _feed(h, [(m.mode_id, m.ego_path) for m in ensemble.modes])
            _feed(h, {mode_id: t.nodes for mode_id, t in ensemble.trees.items()})
            _feed(h, costs.values)
            _feed(h, (values.V, values.Q, policy.pi, ncr, ncg))
    return h.hexdigest()


def cutin_digest(n_seeds: int) -> str:
    scenario = treeplan.config.load_scenario(REPO / "scenarios" / "cutin.json")
    cfg = treeplan.config.load_planner_config(REPO / "configs" / "cutin_eval.json")
    h = hashlib.sha256()
    for seed in range(n_seeds):
        sim_cfg = dataclasses.replace(cfg.sim, seed=seed)
        for planner in workloads.PLANNERS:
            trace = treeplan.sim.run_closed_loop(scenario, planner, sim_cfg, cfg)
            _feed(h, (trace.metadata, trace.steps))
    return h.hexdigest()


def ec_verify_digest() -> str:
    rng = np.random.default_rng(EC_VERIFY_SEED)
    h = hashlib.sha256()
    for _ in range(EC_VERIFY_DRAWS):
        tree, ensemble, costs = treeplan.verify.random_ec_instance(rng)
        _feed(h, tree.nodes)
        _feed(h, [(m.mode_id, m.ego_path) for m in ensemble.modes])
        _feed(h, {mode_id: t.nodes for mode_id, t in ensemble.trees.items()})
        _feed(h, costs.values)
    return h.hexdigest()


def curved_lane_map() -> treeplan.world.LaneGraph:
    """Two lanes 3.5 m apart turning left along a circle centred at
    (0, CURVE_RADIUS), from heading 0 at x = 0 through 135 degrees, each a
    polyline of 18 segments."""
    lanes = []
    for k, offset in enumerate((0.0, -3.5)):
        r = CURVE_RADIUS - offset
        pts = [
            (r * math.sin(th), CURVE_RADIUS - r * math.cos(th))
            for th in np.linspace(0.0, 0.75 * math.pi, 19).tolist()
        ]
        lanes.append(treeplan.world.Lane(f"C{k}", np.array(pts), 12.0))
    return treeplan.world.LaneGraph(tuple(lanes))


def _sorted_uniform(rng, low, high, size_range) -> tuple:
    return tuple(sorted(rng.uniform(low, high, size=int(rng.integers(*size_range))).tolist()))


def sampler_digest() -> str:
    rng = np.random.default_rng(SAMPLER_SEED)
    lane_map = curved_lane_map()
    h = hashlib.sha256()
    for draw in range(SAMPLER_DRAWS):
        th = float(rng.uniform(0.0, 0.4 * math.pi))
        r = CURVE_RADIUS + float(rng.uniform(-2.0, 5.5))
        start = treeplan.world.AgentState(
            r * math.sin(th), CURVE_RADIUS - r * math.cos(th), float(rng.uniform(0.0, 16.0)),
            th + float(rng.normal(0.0, 0.1)),
        )
        cfg = treeplan.sampler.SamplerConfig(
            accel_grid=_sorted_uniform(rng, -6.0, 4.0, (2, 6)),
            yaw_rate_grid=_sorted_uniform(rng, -0.5, 0.5, (2, 6)),
            speed_grid=_sorted_uniform(rng, 0.0, 16.0, (2, 5)),
            lateral_offsets=_sorted_uniform(rng, -2.0, 2.0, (2, 4)),
            max_children=int(rng.integers(2, 5)),
        )
        durations = rng.choice([1.0, 1.5, 2.0], size=int(rng.integers(1, 3))).tolist()
        schedule = treeplan.sampler.StageSchedule((0.0, *durations), 0.1)
        seed = int(rng.integers(2**31))
        tree = treeplan.sampler.grow_tree(start, lane_map if draw % 4 else None, schedule, cfg, seed)
        _feed(h, (tree.nodes, tree.truncated))
    return h.hexdigest()


def _on_curve(th: float, r: float, v: float, psi_noise: float) -> treeplan.world.AgentState:
    """State at angle th on a circle of radius r about the curve's centre,
    heading along the circle plus psi_noise."""
    return treeplan.world.AgentState(r * math.sin(th), CURVE_RADIUS - r * math.cos(th), v, th + psi_noise)


def prediction_digest() -> str:
    rng = np.random.default_rng(PREDICTION_SEED)
    lane_map = curved_lane_map()
    cfg = treeplan.sampler.SamplerConfig(
        accel_grid=(-3.0, 0.0, 2.0), yaw_rate_grid=(-0.1, 0.0, 0.1, 0.2), speed_grid=(6.0, 12.0),
        lateral_offsets=(-1.0, 0.0), max_children=2,
    )
    h = hashlib.sha256()
    for _ in range(PREDICTION_DRAWS):
        th = float(rng.uniform(0.0, 0.3 * math.pi))
        start = _on_curve(th, CURVE_RADIUS + float(rng.uniform(-1.0, 4.5)), float(rng.uniform(2.0, 14.0)),
                          float(rng.normal(0.0, 0.05)))
        agents = {}
        for k in range(int(rng.integers(1, 7))):
            v = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 14.0))
            th_agent = th + float(rng.uniform(-0.15, 0.4))
            r = CURVE_RADIUS + float(rng.uniform(-2.0, 5.5))
            agents[f"a{k}"] = _on_curve(th_agent, r, v, float(rng.normal(0.0, 0.05)))
        maintain, brake, boost = PREDICTION_PRIORS[int(rng.integers(len(PREDICTION_PRIORS)))]
        branching = int(rng.integers(1, min(2 ** len(agents), 7) + 1))
        schedule = treeplan.sampler.StageSchedule((0.0, *rng.choice([1.0, 1.5], size=2).tolist()), 0.1)
        seed = int(rng.integers(2**31))
        tree = treeplan.sampler.grow_tree(start, lane_map, schedule, cfg, seed)
        predictor = treeplan.prediction.KinematicPredictor(
            lane_map=lane_map, branching_factor=branching, maintain_prior=maintain, brake_prior=brake,
            yield_boost=boost,
        )
        scene = treeplan.prediction.Scene(agents=agents, lane_map=lane_map)
        ensemble = treeplan.prediction.predict_ensemble(predictor, scene, tree, schedule, branching, seed)
        _feed(h, [(m.mode_id, m.ego_path) for m in ensemble.modes])
        _feed(h, {mode_id: t.nodes for mode_id, t in ensemble.trees.items()})
    return h.hexdigest()


def _turn_polyline(r: float) -> list:
    """A road edge or lane centre r from the turn's centre (0, WORLD_RADIUS):
    east along y = WORLD_RADIUS - r, a left quarter circle in 16 segments,
    then north along x = r."""
    c = WORLD_RADIUS
    pts = [[-40.0, c - r], [-20.0, c - r]]
    pts += [[r * math.sin(th), c - r * math.cos(th)] for th in np.linspace(0.0, 0.5 * math.pi, 17).tolist()]
    return pts + [[r, c + y] for y in (20.0, 60.0, 120.0, 200.0)]


def _agent(aid, x, y, v, psi, length, width, behavior=None) -> dict:
    doc = {"id": aid, "state": {"x": x, "y": y, "v": v, "psi": psi}, "footprint": {"length": length, "width": width}}
    return {**doc, "behavior": behavior} if behavior else doc


def world_scenario():
    """(scenario, planner config) of the ``world`` line: two lanes through
    the turn, the road between edges 1.75 m outside them (its inner edge
    makes the polygon non-convex) plus a rectangular pocket outside the
    bend."""
    c = WORLD_RADIUS
    cut_in = {
        "kind": "cut_in", "probability": 0.7, "trigger_time": 0.3, "target_lane": "L0",
        "brake_probability": 0.7, "brake_decel": 6.0, "brake_duration": 2.0, "target_speed": 9.0,
    }
    doc = {
        "name": "world",
        "map": {
            "lanes": [
                {"id": "L0", "centerline": _turn_polyline(c), "speed_limit": 11.0},
                {"id": "L1", "centerline": _turn_polyline(c - 3.5), "speed_limit": 9.0},
            ],
            "drivable_area": [
                _turn_polyline(c + 1.75) + _turn_polyline(c - 5.25)[::-1],
                [[20.0, -8.0], [34.0, -8.0], [34.0, 2.0], [20.0, 2.0]],
            ],
        },
        "ego": {
            "state": {"x": -10.0, "y": 0.0, "v": 10.0, "psi": 0.0},
            "footprint": {"length": 4.6, "width": 1.8},
            "goal": [c, 120.0],
        },
        "agents": [
            _agent("cutter", -4.0, 3.5, 10.5, 0.0, 4.6, 1.8, cut_in),
            _agent("lead", 18.0, 0.0, 5.0, 0.0, 4.9, 2.0, {"target_speed": 5.0}),
            _agent("tail", -22.0, 0.0, 13.0, 0.0, 4.2, 1.7),
            _agent("far", c, c + 150.0, 8.0, 0.5 * math.pi, 4.6, 1.8),
        ],
    }
    cfg = {
        "sampler": {
            "accel_grid": [-5.0, -2.0, 0.0, 2.0], "yaw_rate_grid": [-0.15, 0.0, 0.15],
            "speed_grid": [6.0, 11.0], "lateral_offsets": [0.0], "max_children": 2,
        },
        "schedule": {"num_stages": 2, "stage_duration": 1.5, "dt": 0.1},
        "predictor": {"branching_factor": 2},
        "sim": {
            "total_duration": 7.0, "sim_dt": 0.1, "replan_period": 3.0,
            "spawn": {"enabled": True, "rate": 60.0, "radius_min": 15.0, "radius_max": 30.0, "max_agents": 5},
        },
    }
    return treeplan.config.parse_scenario(doc), treeplan.config.parse_planner_config(cfg)


def world_digest() -> str:
    scenario, cfg = world_scenario()
    h = hashlib.sha256()
    for seed in WORLD_EPISODE_SEEDS:
        sim_cfg = dataclasses.replace(cfg.sim, seed=seed)
        for planner in workloads.PLANNERS:
            trace = treeplan.sim.run_closed_loop(scenario, planner, sim_cfg, cfg)
            _feed(h, (trace.metadata, trace.steps))
    rng = np.random.default_rng(WORLD_TREE_SEED)
    for _ in range(WORLD_TREE_DRAWS):
        th = float(rng.uniform(-0.2, 0.5 * math.pi))
        r = WORLD_RADIUS + float(rng.uniform(-5.0, 1.5))
        start = treeplan.world.AgentState(
            r * math.sin(th), WORLD_RADIUS - r * math.cos(th), float(rng.uniform(0.0, 12.0)),
            th + float(rng.normal(0.0, 0.1)),
        )
        tree = treeplan.sampler.grow_tree(start, scenario.lane_map, cfg.schedule, cfg.sampler, int(rng.integers(2**31)))
        _feed(h, (tree.nodes, tree.truncated))
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--cutin-seeds", type=int, default=100, help="episode seeds 0 .. N-1 (default 100)")
    args = ap.parse_args(argv)
    if args.cutin_seeds < 0:
        ap.error("--cutin-seeds must be >= 0")
    print(f"open-loop {open_loop_digest()}")
    print(f"cut-in {cutin_digest(args.cutin_seeds)}")
    print(f"ec-verify {ec_verify_digest()}")
    print(f"sampler {sampler_digest()}")
    print(f"prediction {prediction_digest()}")
    print(f"world {world_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
