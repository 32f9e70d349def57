"""Ego-conditioned, multi-stage, scene-centric scenario trees.

A predictor expands one stage at a time given the agents' states at the
start of that stage and the ego's conditioned motion through it. Flattening
the ego tree yields the conditioning modes. Each (ego prefix, scenario path)
is expanded once, keyed by (seed, stage, scenario path, ego prefix), and
every mode's scenario tree holds the nodes of the ego nodes on its path, so
modes agreeing through stage i share their trees through stage i (causal
consistency).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .errors import CausalConsistencyViolation, PredictorFailure, UnknownNode
from .sampler import StageSchedule, TrajectoryTree
from .world import (
    AgentState,
    LaneGraph,
    Trajectory,
    lane_points_at_batch,
)


@dataclass(frozen=True)
class Scene:
    """Initial multi-agent scene: current states, footprints, optional map."""

    agents: dict  # agent_id -> AgentState
    footprints: dict = field(default_factory=dict)  # agent_id -> Footprint
    lane_map: LaneGraph | None = None


@dataclass(frozen=True)
class ScenarioNode:
    """One joint hypothesis for all agents over a stage interval.

    `path` is the tuple of child indices from the root; the root path is ().
    """

    path: tuple
    stage: int
    agent_trajectories: dict  # agent_id -> Trajectory
    branch_probability: float


@dataclass(frozen=True)
class ScenarioTree:
    nodes: dict  # path -> ScenarioNode
    schedule: StageSchedule
    _by_stage: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # copied, so later edits to the caller's dict cannot stale the index
        object.__setattr__(self, "nodes", dict(self.nodes))
        by_stage: dict = {}
        for node in sorted(self.nodes.values(), key=lambda n: n.path):
            by_stage.setdefault(node.stage, []).append(node)
        object.__setattr__(self, "_by_stage", {k: tuple(v) for k, v in by_stage.items()})

    @property
    def root(self) -> ScenarioNode:
        return self.nodes[()]

    def tree_for_ego_node(self, ego_node_id: int) -> "ScenarioTree":
        """Every ego node reads this one tree."""
        return self

    def children(self, path: tuple) -> list:
        if path not in self.nodes:
            raise UnknownNode(f"scenario node {path} not in tree")
        out = []
        j = 0
        while path + (j,) in self.nodes:
            out.append(self.nodes[path + (j,)])
            j += 1
        return out

    def stage_nodes(self, stage: int) -> tuple:
        """Nodes of one stage in path order."""
        return self._by_stage.get(stage, ())

    @property
    def max_stage(self) -> int:
        return max(self._by_stage)

    def leaf_paths_with_probability(self) -> list:
        """(path, probability) for every root-to-leaf path."""
        out = []
        stack = [((), 1.0)]
        while stack:
            path, prob = stack.pop()
            kids = self.children(path)
            if not kids:
                out.append((path, prob))
            stack += [(c.path, prob * c.branch_probability) for c in reversed(kids)]
        return out


@dataclass(frozen=True)
class ECMode:
    """One flattened root-to-leaf ego path used as a conditioning mode."""

    mode_id: int
    ego_path: tuple  # ego node ids, root first
    ego_segments: tuple  # the path's node segments; ego_segments[i] is stage i's


def flatten_ec_modes(tree: TrajectoryTree) -> list:
    """One conditioning mode per root-to-leaf path, in depth-first order."""
    modes = []
    stack = [(tree.root_id,)]
    while stack:
        ids = stack.pop()
        kids = tree.children(ids[-1])
        if not kids:
            segments = tuple(tree.node(i).segment for i in ids)
            modes.append(ECMode(mode_id=len(modes), ego_path=ids, ego_segments=segments))
        stack += [ids + (child,) for child in reversed(kids)]
    return modes


def _check_hypotheses(hypotheses, branching_factor: int, node: ScenarioNode, stage: int):
    """Raise PredictorFailure unless the expansion of `node` gave 1 to
    branching_factor hypotheses whose probabilities lie in [0, 1] and sum to
    1 within 1e-9, each carrying exactly the agents of `node`."""
    if not 1 <= len(hypotheses) <= branching_factor:
        raise PredictorFailure(stage, node.path, f"{len(hypotheses)} hypotheses, not 1 to {branching_factor}")
    probs = [float(p) for _, p in hypotheses]
    # a NaN fails the sum test, whatever min and max make of it
    if not (abs(sum(probs) - 1.0) <= 1e-9 and min(probs) >= 0.0 and max(probs) <= 1.0):
        raise PredictorFailure(stage, node.path, f"probabilities {probs} are not a distribution")
    agents = node.agent_trajectories.keys()
    for trajs, _ in hypotheses:
        if trajs.keys() != agents:
            missing, extra = sorted(agents - trajs.keys()), sorted(trajs.keys() - agents)
            raise PredictorFailure(stage, node.path, f"agents {missing} missing, {extra} extra")


@dataclass(frozen=True)
class ECPredictionEnsemble:
    modes: tuple
    trees: dict  # mode_id -> ScenarioTree
    _first_mode: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        first: dict = {}  # ego node id -> first mode through it
        for mode in self.modes:
            for node_id in mode.ego_path:
                first.setdefault(node_id, mode)
        object.__setattr__(self, "_first_mode", first)

    def mode_for_ego_node(self, ego_node_id: int) -> ECMode:
        """Lexicographically-first mode whose ego path passes through the node.

        Causal consistency makes the choice immaterial for any stage at or
        before the node's stage. Raises KeyError for a node no mode passes.
        """
        return self._first_mode[ego_node_id]

    def tree_for_ego_node(self, ego_node_id: int) -> ScenarioTree:
        return self.trees[self.mode_for_ego_node(ego_node_id).mode_id]

    @property
    def max_stage(self) -> int:
        return max(t.max_stage for t in self.trees.values())


def validate_causal_consistency(ensemble: ECPredictionEnsemble):
    """Def.-style check: shared ego prefixes imply identical tree prefixes.

    At each stage s, every mode's stage-s nodes must equal (paths, branch
    probabilities and trajectories) those of the first mode with the same
    ego prefix through s. Raises CausalConsistencyViolation naming that
    mode pair at the earliest stage where they differ.
    """
    n_stages = max(len(m.ego_path) for m in ensemble.modes)
    for s in range(n_stages):
        first = {}  # ego prefix through s -> (mode id, stage-s nodes)
        for mode in ensemble.modes:
            if len(mode.ego_path) <= s:
                continue
            nodes = ensemble.trees[mode.mode_id].stage_nodes(s)
            ref_id, ref = first.setdefault(mode.ego_path[: s + 1], (mode.mode_id, nodes))
            if nodes != ref:
                bad = next((a or b).path for a, b in zip_longest(ref, nodes) if a != b)
                raise CausalConsistencyViolation(
                    ref_id, mode.mode_id, s, f"scenario node {bad} differs"
                )


def predict_ensemble(
    predictor,
    scene: Scene,
    tree: TrajectoryTree,
    schedule: StageSchedule,
    branching_factor: int,
    seed: int,
) -> ECPredictionEnsemble:
    """One scenario tree per flattened ego mode, each scenario node expanded once.

    At stage s, each ego node expands every stage-(s-1) scenario node of its
    parent from those nodes' end states and its own segment, never a later
    one; the children are its stage-s nodes, shared by every mode through it.
    One rollout table serves the whole call and is dropped with it. The
    result is validated for causal consistency.
    """
    if branching_factor < 1:
        raise ValueError("branching_factor must be >= 1")
    start = {aid: Trajectory(t0=0.0, dt=schedule.dt, samples=(s,)) for aid, s in sorted(scene.agents.items())}
    rollouts: dict = {}
    # ego node id -> its stage's scenario nodes, in path order
    scen_nodes = {tree.root_id: [ScenarioNode(path=(), stage=0, agent_trajectories=start, branch_probability=1.0)]}
    for stage in range(1, schedule.num_stages + 1):
        for ego in tree.stage_nodes(stage):
            ego_prefix = tree.path_to(ego.id)
            children = scen_nodes[ego.id] = []
            for node in scen_nodes[ego.parent_id]:
                # equal keys exactly when (stage, scenario path, ego prefix) are equal
                key = (seed, stage, node.path, ego_prefix)
                states = {aid: traj.end for aid, traj in node.agent_trajectories.items()}
                try:
                    hypotheses = predictor.predict_stage(states, ego.segment, stage, key, rollouts)
                except Exception as exc:  # noqa: BLE001 - context re-raise
                    raise PredictorFailure(stage, node.path, exc) from exc
                _check_hypotheses(hypotheses, branching_factor, node, stage)
                children += [
                    ScenarioNode(node.path + (j,), stage, dict(trajs), float(prob))
                    for j, (trajs, prob) in enumerate(hypotheses)
                ]
    modes = flatten_ec_modes(tree)
    trees = {
        mode.mode_id: ScenarioTree(
            nodes={n.path: n for ego_id in mode.ego_path[: schedule.num_stages + 1] for n in scen_nodes[ego_id]},
            schedule=schedule,
        )
        for mode in modes
    }
    ensemble = ECPredictionEnsemble(modes=tuple(modes), trees=trees)
    validate_causal_consistency(ensemble)
    return ensemble


# ---------------------------------------------------------------------------
# kinematic baseline predictor


# half-width of the corridor ahead of an agent in which ego samples count as crossing
YIELD_LATERAL = 2.0


@dataclass
class KinematicPredictor:
    """Two per-agent hypotheses: maintain speed, or brake to a stop.

    Agents follow their nearest lane centerline when a map is given, a
    straight line otherwise. Joint scene modes are the per-agent product
    truncated to the most probable branching_factor combinations and
    renormalized. When the conditioned ego motion crosses in front of an
    agent within tau_yield, that agent's brake prior is boosted.
    """

    lane_map: LaneGraph | None = None
    branching_factor: int = 4
    maintain_prior: float = 0.7
    brake_prior: float = 0.3
    b_decel: float = 4.0
    tau_yield: float = 3.0
    yield_boost: float = 2.0

    def predict_stage(
        self, states: dict, ego_segment: Trajectory, stage: int, rng_key: tuple, rollouts: dict
    ):
        """Joint hypotheses for one stage from the agents' current states.

        `rng_key` is the expansion's hashable key, equal for two expansions
        exactly when their seed, stage, scenario path and ego prefix are; a
        stochastic predictor would derive its generator from it. The agents'
        motion does not depend on the ego, so each agent's (maintain, brake)
        rollout pair is read from `rollouts`, keyed by the agent's state, the
        braking deceleration and the stage's t0, duration and dt, and rolled
        out in one call only on a miss. The table belongs to one caller and
        one predictor, so the lane map is not part of the key. The ego
        segment sets the branch probabilities alone; its (x, y) samples are
        read once per call.

        The 2^N joint probabilities form one flat list in agent order: in
        index i, the bit of weight 2^(N-1-j) is agent j's hypothesis, 0 for
        maintain and 1 for brake. Hypotheses come out by descending
        probability, ties by descending index, which is the lexicographic
        order of the labels ("brake" before "maintain"). Only the kept
        indices become dicts. `predict_ensemble` checks the output.
        """
        del stage, rng_key  # deterministic model
        t0, duration, dt = ego_segment.t0, ego_segment.duration, ego_segment.dt
        ego_xy = [(s.x, s.y) for s in ego_segment.samples]
        aids = sorted(states)
        pairs = []
        ps = [1.0]
        for aid in aids:
            state = states[aid]
            key = (state, self.b_decel, t0, duration, dt)
            pair = rollouts.get(key)
            if pair is None:
                pair = rollouts[key] = _advance_agent(state, self.b_decel, duration, dt, t0, self.lane_map)
            pairs.append(pair)
            p_brake = self.brake_prior
            if _ego_crosses_in_front(ego_xy, state, self.tau_yield):
                p_brake *= self.yield_boost
            p_maintain = self.maintain_prior
            total = p_maintain + p_brake
            hp = (p_maintain / total, p_brake / total)
            ps = [p * h for p in ps for h in hp]

        n = len(aids)
        kept = sorted(range(2**n - 1, -1, -1), key=ps.__getitem__, reverse=True)[: self.branching_factor]
        total = sum(ps[i] for i in kept)
        shifts = range(n - 1, -1, -1)
        return [
            ({aid: pair[(i >> b) & 1] for aid, pair, b in zip(aids, pairs, shifts)}, ps[i] / total)
            for i in kept
        ]


def _advance_agent(
    state: AgentState,
    b_decel: float,
    duration: float,
    dt: float,
    t0: float,
    lane_map: LaneGraph | None,
) -> tuple:
    """(maintain, brake) constant-acceleration advances, the brake at -b_decel,
    along the nearest centerline or, without a map, along the heading."""
    n = int(round(duration / dt))
    nearest = lane_map.nearest_lane(state.x, state.y) if lane_map else None
    # row 0 maintains speed, row 1 brakes; every operation below is elementwise
    vs = np.maximum(0.0, state.v + np.array([[0.0], [-b_decel]]) * dt * np.arange(n + 1))
    s = np.concatenate([np.zeros((2, 1)), np.cumsum(0.5 * (vs[:, :-1] + vs[:, 1:]) * dt, axis=1)], axis=1)
    if nearest is not None:
        lane, arc0, lat = nearest
        px, py, heading = lane_points_at_batch(lane, (arc0 + s).ravel())
        xs = (px - lat * np.sin(heading)).reshape(2, -1).tolist()
        ys = (py + lat * np.cos(heading)).reshape(2, -1).tolist()
        psis = heading.reshape(2, -1).tolist()
    else:
        c, sn = math.cos(state.psi), math.sin(state.psi)
        arcs = s.tolist()
        xs = [[state.x + a * c for a in row] for row in arcs]
        ys = [[state.y + a * sn for a in row] for row in arcs]
        psis = [[state.psi] * (n + 1)] * 2
    return tuple(
        Trajectory(
            t0=t0,
            dt=dt,
            samples=(state, *map(AgentState, x[1:], y[1:], v[1:], psi[1:])),
        )
        for x, y, v, psi in zip(xs, ys, vs.tolist(), psis)
    )


def _ego_crosses_in_front(ego_xy: list, agent: AgentState, tau_yield: float) -> bool:
    """True when some conditioned ego (x, y) sample lies in the agent's near corridor."""
    reach = max(agent.v, 1.0) * tau_yield
    ax, ay = agent.x, agent.y
    c, s = math.cos(agent.psi), math.sin(agent.psi)
    for x, y in ego_xy:
        dx, dy = x - ax, y - ay
        lon = dx * c + dy * s
        if 0.0 < lon <= reach and abs(-dx * s + dy * c) <= YIELD_LATERAL:
            return True
    return False
