"""Deterministic closed-loop simulation.

The ego replans on a fixed period with any of the planners; other agents run
seeded lane-follow controllers with Ornstein-Uhlenbeck target-speed
perturbation, optional scripted cut-in behavior, and simple front-gap
braking. A spawner can inject challengers near the ego. Every step is
recorded in a trace that is a pure function of (scenario, planner, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import path_policy, plan_ncg, plan_ncr
from .config import (
    AgentSpec,
    OUParams,
    PlannerConfig,
    ScenarioSpec,
    SimConfig,
    config_hash,
    scenario_to_dict,
    state_to_dict,
)
from .costs import build_cost_tensor_ec
from .dp import solve_policy_ec
from .errors import ScenarioError, TreeplanError
from .prediction import KinematicPredictor, Scene, predict_ensemble
from .sampler import grow_tree
from .world import (
    AgentState,
    Footprint,
    LaneGraph,
    UnicycleInput,
    check_collision,
    integrate_unicycle,
    is_offroad,
    lane_point_at,
    project_to_lane,
    wrap_angle,
)


def ou_step(x: float, cfg: OUParams, dt: float, noise: float) -> float:
    """One Euler-Maruyama step of the Ornstein-Uhlenbeck process."""
    if dt <= 0 or cfg.theta < 0:
        raise ValueError("need dt > 0 and theta >= 0")
    return x + cfg.theta * (cfg.mu - x) * dt + cfg.sigma * math.sqrt(dt) * noise


def agent_policy_step(
    agent: AgentState,
    lane_map: LaneGraph,
    ou_state: float,
    leader: tuple | None = None,
    lane=None,
    target_speed: float | None = None,
    headway: float = 10.0,
    a_min: float = -6.0,
) -> UnicycleInput:
    """Pure-pursuit lane following with OU-perturbed speed tracking.

    leader is an optional (gap_m, leader_speed) pair for front-gap braking;
    ou_state perturbs the target speed.
    """
    if lane is None:
        nearest = lane_map.nearest_lane(agent.x, agent.y)
        if nearest is None:
            return UnicycleInput(0.0, 0.0)
        lane, arc, _ = nearest
    else:
        arc, _, _ = project_to_lane((agent.x, agent.y), lane)
    lookahead = max(3.0, 0.8 * agent.v)
    lx, ly, _ = lane_point_at(lane, arc + lookahead)
    alpha = wrap_angle(math.atan2(ly - agent.y, lx - agent.x) - agent.psi)
    omega = 2.0 * agent.v * math.sin(alpha) / lookahead if agent.v > 0.1 else alpha

    v_target = (target_speed if target_speed is not None else lane.speed_limit) + ou_state
    a = 1.5 * (max(v_target, 0.0) - agent.v)
    if leader is not None:
        gap, lead_v = leader
        if gap < headway:
            a = min(a, a_min / 2.0)
        if gap < headway / 2.0 or lead_v < 0.5:
            a = min(a, a_min)
    return UnicycleInput(a, omega)


@dataclass
class _AgentController:
    """Per-agent behavior state: OU perturbation plus optional scripted cut-in."""

    spec: AgentSpec
    rng: np.random.Generator
    ou: float = 0.0
    phase: str = "follow"
    brake_until: float = math.inf
    will_cut: bool = False
    will_brake: bool = False

    def __post_init__(self):
        b = self.spec.behavior
        if b.get("kind") == "cut_in":
            self.will_cut = self.rng.random() < float(b.get("probability", 0.5))
            self.will_brake = self.rng.random() < float(b.get("brake_probability", 1.0))

    def step(self, state: AgentState, lane_map, ou_cfg, t, dt, leader, limits_a_min):
        b = self.spec.behavior
        self.ou = ou_step(self.ou, ou_cfg, dt, float(self.rng.standard_normal()))
        kind = b.get("kind", "lane_follow")
        lane = None
        target_speed = b.get("target_speed")

        if kind == "cut_in":
            if self.phase == "follow" and self.will_cut and t >= float(b.get("trigger_time", 1.0)):
                self.phase = "cutting"
            if self.phase == "cutting":
                lane = lane_map.lane_by_id(b["target_lane"])
                _, lat, _ = project_to_lane((state.x, state.y), lane)
                if abs(lat) < 0.3:
                    if self.will_brake:
                        self.phase = "braking"
                        self.brake_until = t + float(b.get("brake_duration", 2.0))
                    else:
                        self.phase = "done"
            if self.phase == "braking":
                if t >= self.brake_until:
                    self.phase = "done"
                else:
                    decel = -abs(float(b.get("brake_decel", 4.0)))
                    lane = lane_map.lane_by_id(b["target_lane"])
                    u = agent_policy_step(state, lane_map, 0.0, leader, lane, 0.0, a_min=limits_a_min)
                    return UnicycleInput(min(decel, u.a), u.omega)
            if self.phase == "done":
                lane = lane_map.lane_by_id(b["target_lane"])

        return agent_policy_step(
            state, lane_map, self.ou, leader, lane, target_speed, a_min=limits_a_min
        )


@dataclass
class SimTrace:
    steps: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


def _leader_info(state: AgentState, others: dict, headway: float):
    """(gap, speed) of the nearest vehicle ahead in the same lane corridor."""
    best = None
    c, s = math.cos(state.psi), math.sin(state.psi)
    for other in others.values():
        dx, dy = other.x - state.x, other.y - state.y
        lon = dx * c + dy * s
        lat = -dx * s + dy * c
        if 0.5 < lon < headway * 2 and abs(lat) < 1.8:
            if best is None or lon < best[0]:
                best = (lon, other.v)
    return best


class _PlanState:
    """The ego's committed policy between replans (every planner's plan is a
    PolicyTable); traj None, before the first plan or after an error, means brake."""

    def __init__(self):
        self.traj = None  # committed Trajectory, t0 relative to plan_time
        self.plan_time = 0.0
        self.tree = None
        self.ensemble = None
        self.policy = None
        self.ego_node = None
        self.scen_path = ()
        self.plan_id = "none"


def run_closed_loop(
    scenario: ScenarioSpec,
    planner: str,
    cfg: SimConfig,
    planner_cfg: PlannerConfig | None = None,
) -> SimTrace:
    """Simulate one episode; the trace is deterministic in all inputs."""
    if planner not in ("tpp", "ncr", "ncg"):
        raise ScenarioError(f"unknown planner {planner!r}")
    pc = planner_cfg or PlannerConfig()
    lane_map = scenario.lane_map
    ego = scenario.ego_state
    ego_fp = scenario.ego_footprint
    weights = replace(pc.weights, goal=scenario.goal)
    predictor = KinematicPredictor(
        lane_map=lane_map,
        branching_factor=pc.predictor.branching_factor,
        maintain_prior=pc.predictor.maintain_prior,
        brake_prior=pc.predictor.brake_prior,
        b_decel=pc.predictor.b_decel,
        tau_yield=pc.predictor.tau_yield,
        yield_boost=pc.predictor.yield_boost,
    )

    agents: dict = {a.id: a.state for a in scenario.agents}
    footprints: dict = {a.id: a.footprint for a in scenario.agents}
    controllers: dict = {
        a.id: _AgentController(
            spec=a,
            rng=np.random.default_rng(
                # every byte of the id, so ids sharing a prefix get their own streams
                np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1, *a.id.encode()))
            ),
        )
        for a in scenario.agents
    }
    spawn_rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(2,)))
    spawn_count = 0

    plan = _PlanState()
    n_steps = int(round(cfg.total_duration / cfg.sim_dt))
    replan_every = int(round(cfg.replan_period / cfg.sim_dt))
    a_min = pc.sampler.limits.a_min
    trace = SimTrace(
        metadata={
            "config_hash": config_hash(scenario_to_dict(scenario)),
            "planner": planner,
            "seed": cfg.seed,
        }
    )

    def replan(t: float):
        plan.plan_time = t
        try:
            tree = grow_tree(ego, lane_map, pc.schedule, pc.sampler, cfg.seed)
            if tree.max_stage < pc.schedule.num_stages:
                raise TreeplanError("tree truncated before full horizon")
            scene = Scene(agents=dict(agents), footprints=dict(footprints), lane_map=lane_map)
            ensemble = predict_ensemble(
                predictor, scene, tree, pc.schedule, pc.predictor.branching_factor, cfg.seed
            )
            costs = build_cost_tensor_ec(tree, ensemble, lane_map, weights, ego_fp, footprints)
            if planner == "tpp":
                _, policy = solve_policy_ec(tree, ensemble, costs)
            elif planner == "ncr":
                nc = plan_ncr(tree, ensemble, costs, worst_case=pc.ncr_worst_case)
                policy = path_policy(ensemble, nc.path)
            else:
                policy = path_policy(ensemble, plan_ncg(tree, ensemble, costs).path)
        except TreeplanError as exc:
            plan.traj = None
            plan.plan_id = f"fallback@{t:.1f}"
            return str(exc)
        plan.tree, plan.ensemble, plan.policy = tree, ensemble, policy
        plan.ego_node = policy.pi[(tree.root_id, ())]
        plan.scen_path = ()
        plan.traj = tree.node(plan.ego_node).segment
        plan.plan_id = f"{planner}@{t:.1f}:n{plan.ego_node}"
        return None

    def miss(branch) -> float:
        """Summed distance from the agents now to the branch's predicted ends."""
        d = 0.0
        for aid, traj in branch.agent_trajectories.items():
            if aid in agents:
                end = traj.end
                d += math.hypot(end.x - agents[aid].x, end.y - agents[aid].y)
        return d

    def advance_plan(t: float):
        """At a stage boundary: observe the nearest branch, follow the policy."""
        if plan.tree.node(plan.ego_node).stage >= plan.tree.max_stage:
            return replan(t)
        kids = plan.ensemble.tree_for_ego_node(plan.ego_node).children(plan.scen_path)
        key = (plan.ego_node, min(kids, key=miss).path)
        if key not in plan.policy.pi:
            return replan(t)
        plan.ego_node, plan.scen_path = plan.policy.pi[key], key[1]
        plan.traj = plan.tree.node(plan.ego_node).segment
        return None

    for step in range(n_steps):
        t = step * cfg.sim_dt
        events: dict = {"collision": [], "offroad": False, "spawn": [], "despawn": []}

        if step % replan_every == 0:
            err = replan(t)
            if err is not None:
                events["planner_error"] = err

        # ego advance: move to the next plan segment when this one has run out
        if plan.traj is not None and t + cfg.sim_dt - plan.plan_time > plan.traj.t_end + 1e-9:
            err = advance_plan(t + cfg.sim_dt)
            if err is not None:
                events["planner_error"] = err
        if plan.traj is None:
            ego = integrate_unicycle(ego, UnicycleInput(a_min, 0.0), cfg.sim_dt, pc.sampler.limits)
        else:
            ego = plan.traj.state_at(t + cfg.sim_dt - plan.plan_time)

        # other agents advance
        new_states = {}
        for aid in sorted(agents):
            state = agents[aid]
            others = {k: v for k, v in agents.items() if k != aid}
            others["__ego__"] = ego
            leader = _leader_info(state, others, headway=10.0)
            u = controllers[aid].step(state, lane_map, cfg.ou, t, cfg.sim_dt, leader, a_min)
            u = pc.sampler.limits.clamp(u)
            new_states[aid] = integrate_unicycle(state, u, cfg.sim_dt, pc.sampler.limits)
        agents = new_states

        # despawn far-away agents
        for aid in sorted(agents):
            if math.hypot(agents[aid].x - ego.x, agents[aid].y - ego.y) > 150.0:
                del agents[aid], footprints[aid], controllers[aid]
                events["despawn"].append(aid)

        # spawn challengers near the ego
        if cfg.spawn.enabled and len(agents) < cfg.spawn.max_agents:
            if spawn_rng.random() < cfg.spawn.rate * cfg.sim_dt / 60.0:
                spawned = _try_spawn(
                    spawn_rng, ego, ego_fp, agents, footprints, lane_map, cfg.spawn, spawn_count
                )
                if spawned is not None:
                    aid, state, fp = spawned
                    agents[aid] = state
                    footprints[aid] = fp
                    controllers[aid] = _AgentController(
                        spec=AgentSpec(id=aid, state=state, footprint=fp),
                        rng=np.random.default_rng(
                            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(3, spawn_count))
                        ),
                    )
                    spawn_count += 1
                    events["spawn"].append(aid)

        # events
        for aid in sorted(agents):
            if check_collision(ego, ego_fp, agents[aid], footprints[aid]):
                events["collision"].append(aid)
        events["offroad"] = is_offroad(ego, ego_fp, lane_map)

        trace.steps.append(
            {
                "t": round(t + cfg.sim_dt, 9),
                "ego": state_to_dict(ego),
                "agents": {aid: state_to_dict(agents[aid]) for aid in sorted(agents)},
                "plan_id": plan.plan_id,
                "events": events,
            }
        )

    return trace


def _try_spawn(rng, ego, ego_fp, agents, footprints, lane_map, spawn_cfg, count):
    """Place a new agent on a lane within the radius band; None if blocked."""
    fp = Footprint(4.6, 1.8)
    for _ in range(5):
        lanes = lane_map.lanes
        if not lanes:
            return None
        lane = lanes[int(rng.integers(len(lanes)))]
        arc_ego, _, _ = project_to_lane((ego.x, ego.y), lane)
        radius = spawn_cfg.radius_min + rng.random() * (spawn_cfg.radius_max - spawn_cfg.radius_min)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        px, py, heading = lane_point_at(lane, arc_ego + sign * radius)
        speed = lane.speed_limit * (0.5 + 0.5 * rng.random())
        state = AgentState(px, py, speed, heading)
        if is_offroad(state, fp, lane_map):
            continue
        blocked = check_collision(state, fp, ego, ego_fp)
        for aid in sorted(agents):
            if check_collision(state, fp, agents[aid], footprints[aid]):
                blocked = True
                break
        if blocked:
            continue
        return f"spawn_{count}", state, fp
    return None
