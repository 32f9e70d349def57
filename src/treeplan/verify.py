"""Randomized verification suites: DP-vs-enumeration, consistency, splines.

Shared between the CLI `verify` command and the acceptance tests. All
generators are seeded and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .costs import CostTensor
from .dp import brute_force_value, count_policies, policy_expected_cost, solve_policy
from .errors import CausalConsistencyViolation
from .prediction import (
    ECPredictionEnsemble,
    KinematicPredictor,
    Scene,
    ScenarioNode,
    ScenarioTree,
    flatten_ec_modes,
    predict_ensemble,
    validate_causal_consistency,
)
from .sampler import (
    SamplerConfig,
    StageSchedule,
    TrajectoryTree,
    TreeNode,
    fit_spline,
    grow_tree,
    spline_to_trajectory,
)
from .world import AgentState, DynamicsLimits, Trajectory


# ---------------------------------------------------------------------------
# abstract random instances (plain trees, random probabilities and costs)


def random_tree(rng: np.random.Generator, num_stages: int, max_branch: int) -> TrajectoryTree:
    """Random structural ego tree; segments are omitted (DP never reads them)."""
    nodes = [TreeNode(id=0, stage=0, parent_id=None, segment=None)]
    frontier = [0]
    next_id = 1
    for stage in range(1, num_stages + 1):
        new_frontier = []
        for pid in frontier:
            for _ in range(int(rng.integers(1, max_branch + 1))):
                nodes.append(TreeNode(id=next_id, stage=stage, parent_id=pid, segment=None))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return TrajectoryTree(nodes=tuple(nodes), schedule=StageSchedule.uniform(num_stages))


def random_scenario_tree(rng: np.random.Generator, num_stages: int, max_branch: int) -> ScenarioTree:
    nodes = {(): ScenarioNode(path=(), stage=0, agent_trajectories={}, branch_probability=1.0)}
    frontier = [()]
    for stage in range(1, num_stages + 1):
        new_frontier = []
        for path in frontier:
            k = int(rng.integers(1, max_branch + 1))
            probs = rng.random(k) + 0.05
            probs = probs / probs.sum()
            for j in range(k):
                p = path + (j,)
                nodes[p] = ScenarioNode(
                    path=p, stage=stage, agent_trajectories={}, branch_probability=float(probs[j])
                )
                new_frontier.append(p)
        frontier = new_frontier
    return ScenarioTree(nodes=nodes, schedule=StageSchedule.uniform(num_stages))


def random_costs(rng: np.random.Generator, view_pairs) -> CostTensor:
    return CostTensor({key: float(rng.uniform(0.0, 10.0)) for key in view_pairs})


def _pairs_plain(tree: TrajectoryTree, scenario: ScenarioTree):
    for stage in range(tree.max_stage + 1):
        for ego in tree.stage_nodes(stage):
            for scen in scenario.stage_nodes(stage):
                yield (ego.id, scen.path)


def random_dp_instance(rng: np.random.Generator, policy_cap: int = 2000):
    """Random (tree, scenario, costs) with at most policy_cap policies."""
    while True:
        num_stages = int(rng.integers(1, 4))
        max_branch = int(rng.integers(1, 4))
        tree = random_tree(rng, num_stages, max_branch)
        scenario = random_scenario_tree(rng, num_stages, int(rng.integers(1, 4)))
        if count_policies(tree, scenario) <= policy_cap:
            costs = random_costs(rng, _pairs_plain(tree, scenario))
            return tree, scenario, costs


def _oracle_suite(make_instance, n_instances: int, seed: int, tol: float):
    """solve_policy vs exhaustive enumeration on make_instance(rng) draws."""
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(n_instances):
        tree, scenario, costs = make_instance(rng)
        values, policy = solve_policy(tree, scenario, costs)
        root_v = values.V[(0, ())]
        bf_value, _ = brute_force_value(tree, scenario, costs)
        replayed = policy_expected_cost(tree, scenario, costs, policy)
        if abs(root_v - bf_value) > tol or abs(replayed - bf_value) > tol:
            failures.append((i, root_v, bf_value, replayed))
    return failures


def run_dp_oracle_suite(n_instances: int = 200, seed: int = 0, tol: float = 1e-9):
    """The oracle suite on plain random trees, probabilities and costs."""
    return _oracle_suite(random_dp_instance, n_instances, seed, tol)


# ---------------------------------------------------------------------------
# EC instances around the kinematic predictor


_VERIFY_SAMPLER = SamplerConfig(
    accel_grid=(-2.0, 0.0, 2.0),
    yaw_rate_grid=(-0.1, 0.0, 0.1),
    speed_grid=(),
    lateral_offsets=(),
    max_children=2,
    limits=DynamicsLimits(),
)


def random_scene(rng: np.random.Generator, n_agents: int) -> Scene:
    agents = {}
    for k in range(n_agents):
        agents[f"a{k}"] = AgentState(
            x=float(rng.uniform(5.0, 30.0)),
            y=float(rng.uniform(-6.0, 6.0)),
            v=float(rng.uniform(0.0, 12.0)),
            psi=float(rng.uniform(-math.pi / 4, math.pi / 4)),
        )
    return Scene(agents=agents)


def random_ec_instance(rng: np.random.Generator, policy_cap: int = 3000):
    """Random (ego tree, EC ensemble, costs) built by the kinematic predictor."""
    while True:
        num_stages = int(rng.integers(1, 4))
        max_children = int(rng.integers(1, 3))
        branching = int(rng.integers(1, 3))
        seed = int(rng.integers(0, 2**31))
        schedule = StageSchedule.uniform(num_stages, stage_duration=1.0)
        sampler = replace(_VERIFY_SAMPLER, max_children=max_children)
        root = AgentState(0.0, 0.0, float(rng.uniform(2.0, 10.0)), 0.0)
        tree = grow_tree(root, None, schedule, sampler, seed)
        if tree.max_stage < num_stages:
            continue
        scene = random_scene(rng, int(rng.integers(1, 3)))
        predictor = KinematicPredictor(branching_factor=branching)
        ensemble = predict_ensemble(predictor, scene, tree, schedule, branching, seed)
        if count_policies(tree, ensemble) > policy_cap:
            continue
        keys = []
        for ego_node in tree.nodes:
            scen_tree = ensemble.tree_for_ego_node(ego_node.id)
            for scen in scen_tree.stage_nodes(ego_node.stage):
                keys.append((ego_node.id, scen.path))
        costs = random_costs(rng, keys)
        return tree, ensemble, costs


def run_ec_oracle_suite(n_instances: int = 200, seed: int = 1, tol: float = 1e-9):
    """The oracle suite on kinematic-predictor ensembles."""
    return _oracle_suite(random_ec_instance, n_instances, seed, tol)


def run_consistency_suite(n_instances: int = 200, seed: int = 2):
    """Kinematic-predictor ensembles must always validate."""
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(n_instances):
        num_stages = int(rng.integers(1, 4))
        max_children = int(rng.integers(1, 4))
        branching = int(rng.integers(1, 4))
        inst_seed = int(rng.integers(0, 2**31))
        schedule = StageSchedule.uniform(num_stages, stage_duration=1.0)
        sampler = replace(_VERIFY_SAMPLER, max_children=max_children)
        root = AgentState(0.0, 0.0, float(rng.uniform(2.0, 10.0)), 0.0)
        tree = grow_tree(root, None, schedule, sampler, inst_seed)
        scene = random_scene(rng, int(rng.integers(1, 3)))
        predictor = KinematicPredictor(branching_factor=branching)
        try:
            predict_ensemble(predictor, scene, tree, schedule, branching, inst_seed)
        except CausalConsistencyViolation as exc:
            failures.append((i, str(exc)))
    return failures


# ---------------------------------------------------------------------------
# adversarial predictor: conditions on the whole candidate ego trajectory


@dataclass
class FuturePeekingPredictor(KinematicPredictor):
    """Breaks consistency on purpose: output depends on `future_end`, the end
    of the whole ego path it is bound to."""

    future_end: AgentState = field(kw_only=True)

    def predict_stage(self, states, ego_segment, stage, rng_key, rollouts):
        hypotheses = super().predict_stage(states, ego_segment, stage, rng_key, rollouts)
        # leak: shift every prediction by a function of the full ego future
        shift = 0.01 * self.future_end.x

        def shifted(t):
            return Trajectory(t.t0, t.dt, tuple(AgentState(s.x + shift, s.y, s.v, s.psi) for s in t.samples))

        return [({aid: shifted(t) for aid, t in trajs.items()}, prob) for trajs, prob in hypotheses]


def predict_per_mode(make_predictor, scene, tree, schedule, branching_factor: int, seed: int):
    """An ensemble predicted one mode at a time, each on the tree of its ego
    path alone by make_predictor(mode), so the predictor may see the whole
    mode. The assembled ensemble is not validated."""
    modes = flatten_ec_modes(tree)
    trees = {}
    for mode in modes:
        path_tree = TrajectoryTree(nodes=tuple(map(tree.node, mode.ego_path)), schedule=tree.schedule)
        single = predict_ensemble(make_predictor(mode), scene, path_tree, schedule, branching_factor, seed)
        trees[mode.mode_id] = single.trees[0]
    return ECPredictionEnsemble(modes=modes, trees=trees)


def make_shared_prefix_tree(dt: float = 0.1) -> tuple:
    """Ego tree with one stage-1 node and two stage-2 children (2 modes)."""
    schedule = StageSchedule((0.0, 1.0, 1.0), dt)
    s0 = AgentState(0.0, 0.0, 5.0, 0.0)
    root = TreeNode(id=0, stage=0, parent_id=None, segment=Trajectory(0.0, dt, (s0,)))
    s1 = AgentState(5.0, 0.0, 5.0, 0.0)
    sp1 = fit_spline(s0, s1, 1.0, dt)
    n1 = TreeNode(id=1, stage=1, parent_id=0, segment=spline_to_trajectory(sp1, s0, s1, dt, 0.0))
    kids = []
    for k, term in enumerate(
        [AgentState(10.0, 0.0, 5.0, 0.0), AgentState(9.0, 1.5, 4.0, 0.3)]
    ):
        sp = fit_spline(s1, term, 1.0, dt)
        kids.append(
            TreeNode(id=2 + k, stage=2, parent_id=1, segment=spline_to_trajectory(sp, s1, term, dt, 1.0))
        )
    tree = TrajectoryTree(nodes=(root, n1, *kids), schedule=schedule)
    return tree, schedule


def run_adversarial_consistency_case(seed: int = 3) -> bool:
    """True when validation catches the whole-future-peeking predictor at stage <= 1."""
    tree, schedule = make_shared_prefix_tree()
    scene = Scene(agents={"a0": AgentState(12.0, 0.0, 4.0, 0.0)})
    ensemble = predict_per_mode(
        lambda mode: FuturePeekingPredictor(branching_factor=2, future_end=mode.ego_segments[-1].end),
        scene, tree, schedule, 2, seed,
    )
    try:
        validate_causal_consistency(ensemble)
    except CausalConsistencyViolation as exc:
        return exc.stage <= 1
    return False


# ---------------------------------------------------------------------------
# spline residuals


def spline_residual(start: AgentState, terminal: AgentState, duration: float) -> float:
    """Max violation of the eight endpoint conditions of a fitted spline."""
    sp = fit_spline(start, terminal, duration)
    x0, y0 = sp.position(0.0)
    xT, yT = sp.position(duration)
    vx0, vy0 = sp.velocity(0.0)
    vxT, vyT = sp.velocity(duration)
    return max(
        abs(x0 - start.x),
        abs(y0 - start.y),
        abs(xT - terminal.x),
        abs(yT - terminal.y),
        abs(vx0 - start.v * math.cos(start.psi)),
        abs(vy0 - start.v * math.sin(start.psi)),
        abs(vxT - terminal.v * math.cos(terminal.psi)),
        abs(vyT - terminal.v * math.sin(terminal.psi)),
    )


def run_spline_suite(n_pairs: int = 1000, seed: int = 4, tol: float = 1e-9):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        start = AgentState(
            float(rng.uniform(-50, 50)),
            float(rng.uniform(-50, 50)),
            float(rng.uniform(0, 20)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        terminal = AgentState(
            float(rng.uniform(-50, 50)),
            float(rng.uniform(-50, 50)),
            float(rng.uniform(0, 20)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        duration = float(rng.uniform(0.5, 4.0))
        worst = max(worst, spline_residual(start, terminal, duration))
    return worst if worst >= tol else None, worst
