"""Inputs and operations of the benchmark workloads.

Every input is made from the run's ``--seed`` (or read from the shipped
scenario and config) and handed to treeplan's public API; the package is
always called through its module attributes, so the traced run's wrappers
(see tracing.py) see every call.

- ``cutin-loop``: closed-loop episodes of the shipped cut-in evaluation. One
  round is one episode seed run by tpp, ncr and ncg in turn.
- ``dense-plan``: open-loop planning cycles on generated three-lane scenes
  with six agents, at the paper's scale (2 stages, branching factor 4,
  max_children 4, lane targets on). One round is one planning cycle.
- ``deep-tree``: open-loop planning cycles with two agents and a deeper,
  wider tree (3 stages, max_children 3, branching factor 3: 27 modes).
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import treeplan.baselines
import treeplan.config
import treeplan.costs
import treeplan.dp
import treeplan.metrics
import treeplan.prediction
import treeplan.sampler
import treeplan.sim

import checks

LANE_WIDTH = 3.5
COST_WEIGHTS = {
    "w_collision": 10.0,
    "w_lane": 0.1,
    "w_goal": 1.0,
    "w_comfort": 0.05,
    "collision_scale": 2.0,
}
COST_SAMPLES = 12  # cost-tensor entries recomputed per plan


def _footprint(fp) -> tuple:
    return (fp.length, fp.width)


# ---------------------------------------------------------------------------
# open-loop planning cycles


def road_doc(n_lanes: int, x0: float = -60.0, x1: float = 460.0, step: float = 40.0) -> dict:
    """Straight parallel lanes LANE_WIDTH apart inside one drivable rectangle."""
    xs = np.arange(x0, x1 + step / 2, step).tolist()
    lanes = [
        {
            "id": f"L{i}",
            "centerline": [[x, i * LANE_WIDTH] for x in xs],
            "speed_limit": 13.0,
            "successors": [],
        }
        for i in range(n_lanes)
    ]
    lo, hi = -LANE_WIDTH / 2, (n_lanes - 0.5) * LANE_WIDTH
    return {"lanes": lanes, "drivable_area": [[[x0, lo], [x1, lo], [x1, hi], [x0, hi]]]}


def scene_doc(rng: np.random.Generator, n_lanes: int, n_agents: int, name: str) -> dict:
    """Ego in the middle lane; agents on random lanes, 10 m apart within a lane."""
    ego_lane = n_lanes // 2
    ego_y = ego_lane * LANE_WIDTH
    placed = [(ego_lane, 0.0)]
    agents = []
    while len(agents) < n_agents:
        lane = int(rng.integers(n_lanes))
        x = float(rng.uniform(-25.0, 70.0))
        if any(lane == pl and abs(x - px) < 10.0 for pl, px in placed):
            continue
        placed.append((lane, x))
        agents.append(
            {
                "id": f"agent{len(agents)}",
                "state": {"x": x, "y": lane * LANE_WIDTH, "v": float(rng.uniform(6.0, 14.0)), "psi": 0.0},
                "footprint": {"length": float(rng.uniform(4.2, 5.0)), "width": 1.8},
            }
        )
    return {
        "name": name,
        "map": road_doc(n_lanes),
        "ego": {
            "state": {"x": 0.0, "y": ego_y, "v": float(rng.uniform(8.0, 12.0)), "psi": 0.0},
            "footprint": {"length": 4.6, "width": 1.8},
            "goal": [250.0, ego_y],
        },
        "agents": agents,
    }


DENSE_CONFIG = {
    "sampler": {
        "accel_grid": [-4.0, -2.0, 0.0, 2.0],
        "yaw_rate_grid": [-0.3, -0.1, 0.0, 0.1, 0.3],
        "speed_grid": [2.0, 6.0, 10.0, 14.0],
        "lateral_offsets": [-1.0, 0.0, 1.0],
        "max_children": 4,
    },
    "schedule": {"num_stages": 2, "stage_duration": 2.0, "dt": 0.1},
    "predictor": {"kind": "kinematic", "branching_factor": 4},
    "cost": COST_WEIGHTS,
}

DEEP_CONFIG = {
    "sampler": {
        "accel_grid": [-4.0, -2.0, 0.0, 2.0],
        "yaw_rate_grid": [-0.2, 0.0, 0.2],
        "speed_grid": [6.0, 10.0, 14.0],
        "lateral_offsets": [0.0],
        "max_children": 3,
    },
    "schedule": {"num_stages": 3, "stage_duration": 2.0, "dt": 0.1},
    "predictor": {"kind": "kinematic", "branching_factor": 3},
    "cost": COST_WEIGHTS,
}


@dataclasses.dataclass
class PlanInputs:
    scenario: object
    cfg: object
    scene: object
    predictor: object
    weights: object
    seed: int
    # for the independent cost recomputation
    ego_fp: tuple
    agent_fps: dict
    centerlines: list


def plan_inputs(doc: dict, cfg_doc: dict, seed: int) -> PlanInputs:
    scenario = treeplan.config.parse_scenario(doc)
    cfg = treeplan.config.parse_planner_config(cfg_doc)
    lane_map = scenario.lane_map
    p = cfg.predictor
    return PlanInputs(
        scenario=scenario,
        cfg=cfg,
        scene=treeplan.prediction.Scene(
            agents={a.id: a.state for a in scenario.agents},
            footprints={a.id: a.footprint for a in scenario.agents},
            lane_map=lane_map,
        ),
        predictor=treeplan.prediction.KinematicPredictor(
            lane_map=lane_map,
            branching_factor=p.branching_factor,
            maintain_prior=p.maintain_prior,
            brake_prior=p.brake_prior,
            b_decel=p.b_decel,
            tau_yield=p.tau_yield,
            yield_boost=p.yield_boost,
        ),
        weights=dataclasses.replace(cfg.weights, goal=scenario.goal),
        seed=seed,
        ego_fp=_footprint(scenario.ego_footprint),
        agent_fps={a.id: _footprint(a.footprint) for a in scenario.agents},
        centerlines=[[tuple(p) for p in doc_lane["centerline"]] for doc_lane in doc["map"]["lanes"]],
    )


def plan(inp: PlanInputs):
    """One planning cycle from scene to policy, plus the two baselines."""
    cfg, lane_map = inp.cfg, inp.scenario.lane_map
    bf = cfg.predictor.branching_factor
    tree = treeplan.sampler.grow_tree(inp.scenario.ego_state, lane_map, cfg.schedule, cfg.sampler, inp.seed)
    ensemble = treeplan.prediction.predict_ensemble(inp.predictor, inp.scene, tree, cfg.schedule, bf, inp.seed)
    costs = treeplan.costs.build_cost_tensor_ec(
        tree, ensemble, lane_map, inp.weights, inp.scenario.ego_footprint, inp.scene.footprints
    )
    values, policy = treeplan.dp.solve_policy_ec(tree, ensemble, costs)
    ncr = treeplan.baselines.plan_ncr(tree, ensemble, costs)
    ncg = treeplan.baselines.plan_ncg(tree, ensemble, costs)
    return tree, ensemble, costs, values, policy, ncr, ncg


class OpenLoop:
    """Planning cycles over a pool of generated scenes; round r plans scene r mod pool size."""

    def __init__(self, seed: int, cfg_doc: dict, n_lanes: int, n_agents: int, n_scenes: int):
        rng = np.random.default_rng(seed)
        self.inputs = [
            plan_inputs(scene_doc(rng, n_lanes, n_agents, f"scene{k}"), cfg_doc, int(rng.integers(2**31)))
            for k in range(n_scenes + 1)
        ]
        self.warm = self.inputs.pop()
        self.seed = seed

    def warm_up(self):
        plan(self.warm)

    def round(self, r: int):
        return [(self.inputs[r % len(self.inputs)], plan)]

    def take_plan_ms(self, op_seconds: float) -> list:
        """Planning-cycle times of the operation just run: the operation itself."""
        return [op_seconds * 1e3]

    def check(self, inp, result, op_index: int):
        tree, ensemble, costs, values, policy, ncr, ncg = result
        cfg = inp.cfg
        n_stages = cfg.schedule.num_stages
        limits = cfg.sampler.limits
        checks.check_ego_tree(tree, cfg.schedule, cfg.sampler.max_children, limits.v_max, inp.scenario.ego_state)
        checks.check_scenario_trees(ensemble, tree, cfg.predictor.branching_factor, n_stages)
        checks.check_causal_consistency(ensemble, n_stages)
        rng = np.random.default_rng([self.seed, op_index])
        checks.check_cost_tensor(tree, ensemble, costs, inp, checks.sample_cost_keys(costs, rng, COST_SAMPLES))
        checks.check_policy(tree, ensemble, costs, values, policy, ncr, ncg)

    def finish(self):
        return ""


# ---------------------------------------------------------------------------
# closed-loop cut-in evaluation

PLANNERS = ("tpp", "ncr", "ncg")


class ReplanClock:
    """Times each replan inside the simulator, from its call into grow_tree
    to the return of the planner it then runs."""

    def __init__(self):
        self.ms = []
        self._t0 = None
        sim = treeplan.sim
        sim.grow_tree = self._start(sim.grow_tree)
        for name in ("solve_policy_ec", "plan_ncr", "plan_ncg"):
            setattr(sim, name, self._stop(getattr(sim, name)))

    def _start(self, fn):
        def timed(*args, **kwargs):
            self._t0 = perf_counter()
            return fn(*args, **kwargs)

        return timed

    def _stop(self, fn):
        def timed(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.ms.append((perf_counter() - self._t0) * 1e3)
            return out

        return timed


class CutinLoop:
    """Closed-loop episodes; one round = one episode seed run by every planner."""

    def __init__(self, seed: int, root):
        self.scenario = treeplan.config.load_scenario(root / "scenarios" / "cutin.json")
        self.cfg = treeplan.config.load_planner_config(root / "configs" / "cutin_eval.json")
        rng = np.random.default_rng([seed, 1])
        self.episode_seeds = [int(s) for s in rng.integers(2**31, size=4096)]
        self.warm_seed = int(rng.integers(2**31))
        self.clock = ReplanClock()
        self.first_round = {}
        self.crashes = dict.fromkeys(PLANNERS, 0)
        self.episodes = 0
        sc, sim = self.scenario, self.cfg.sim
        self.ep = SimpleNamespace(
            total_duration=sim.total_duration,
            sim_dt=sim.sim_dt,
            v_max=self.cfg.sampler.limits.v_max,
            ego_state={"x": sc.ego_state.x, "y": sc.ego_state.y},
            ego_fp=_footprint(sc.ego_footprint),
            agent_fps={a.id: _footprint(a.footprint) for a in sc.agents},
            rect=checks.drivable_rect(sc.raw["map"]["drivable_area"]),
        )

    def episode(self, job):
        planner, seed = job
        sim_cfg = dataclasses.replace(self.cfg.sim, seed=seed)
        trace = treeplan.sim.run_closed_loop(self.scenario, planner, sim_cfg, self.cfg)
        crash, offroad = treeplan.metrics.crash_and_offroad_rates(trace)
        coverage = treeplan.metrics.kde_coverage(trace)
        return trace, crash, offroad, coverage

    def warm_up(self):
        self.episode(("tpp", self.warm_seed))
        self.clock.ms.clear()

    def round(self, r: int):
        seed = self.episode_seeds[r]
        return [((planner, seed), self.episode) for planner in PLANNERS]

    def take_plan_ms(self, op_seconds: float) -> list:
        """Planning-cycle times of the episode just run: its replans."""
        out = list(self.clock.ms)
        self.clock.ms.clear()
        return out

    def check(self, job, result, op_index: int):
        trace, crash, offroad, _coverage = result
        if checks.check_episode(trace, crash, offroad, self.ep):
            self.crashes[job[0]] += 1
        self.episodes += 1
        if job[1] == self.episode_seeds[0]:
            self.first_round[job] = trace

    def finish(self):
        """Rerun the first round's episodes; each must repeat its trace."""
        for job, trace in self.first_round.items():
            checks.check_rerun(trace, self.episode(job)[0])
        per = self.episodes // len(PLANNERS)
        return "crashed episodes: " + ", ".join(f"{p} {self.crashes[p]}/{per}" for p in PLANNERS)


def make(name: str, seed: int, root):
    if name == "cutin-loop":
        return CutinLoop(seed, root)
    if name == "dense-plan":
        return OpenLoop(seed, DENSE_CONFIG, n_lanes=3, n_agents=6, n_scenes=8)
    if name == "deep-tree":
        return OpenLoop(seed, DEEP_CONFIG, n_lanes=3, n_agents=2, n_scenes=8)
    raise KeyError(name)
