"""Closed-loop simulation: determinism, agent behaviors, noise process."""

import json
import math

import numpy as np
import pytest

from treeplan import AgentState, SamplerConfig, UnicycleInput, integrate_unicycle, run_closed_loop
from treeplan.config import (
    OUParams,
    PlannerConfig,
    SimConfig,
    SpawnConfig,
    load_scenario,
    parse_scenario,
    state_to_dict,
)
from treeplan.errors import ScenarioError
from treeplan.sim import agent_policy_step, ou_step


def _scenario_doc(agents=()):
    return {
        "name": "t",
        "map": {
            "lanes": [
                {"id": "L0", "centerline": [[float(x), 0.0] for x in range(-20, 301, 20)], "speed_limit": 12.0},
                {"id": "L1", "centerline": [[float(x), 3.5] for x in range(-20, 301, 20)], "speed_limit": 12.0},
            ],
            "drivable_area": [[[-20.0, -1.75], [300.0, -1.75], [300.0, 5.25], [-20.0, 5.25]]],
        },
        "ego": {
            "state": {"x": 0.0, "y": 0.0, "v": 10.0, "psi": 0.0},
            "footprint": {"length": 4.6, "width": 1.8},
            "goal": [250.0, 0.0],
        },
        "agents": list(agents),
    }


def _lead_agent(x=30.0, y=0.0, v=8.0, behavior=None):
    return {
        "id": "lead",
        "state": {"x": x, "y": y, "v": v, "psi": 0.0},
        "footprint": {"length": 4.6, "width": 1.8},
        "behavior": behavior or {},
    }


class TestOUProcess:
    def test_stationary_variance(self):
        """Euler-Maruyama OU with theta=0.5, mu=0, sigma=0.2: empirical
        stationary variance over 10^6 steps is within 5% of sigma^2/(2 theta)."""
        cfg = OUParams(theta=0.5, mu=0.0, sigma=0.2)
        dt = 0.1
        rng = np.random.default_rng(0)
        n = 10**6
        xs = np.empty(n)
        x = 0.0
        noise = rng.standard_normal(n)
        for k in range(n):
            x = ou_step(x, cfg, dt, noise[k])
            xs[k] = x
        target = cfg.sigma**2 / (2 * cfg.theta)
        burn = 10_000
        assert abs(xs[burn:].var() - target) / target < 0.05

    def test_mean_reversion(self):
        cfg = OUParams(theta=1.0, mu=2.0, sigma=0.0)
        x = 0.0
        for _ in range(200):
            x = ou_step(x, cfg, 0.1, 0.0)
        assert x == pytest.approx(2.0, abs=1e-6)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            ou_step(0.0, OUParams(), 0.0, 0.0)


class TestAgentController:
    def test_front_gap_braking(self, two_lane_map):
        agent = AgentState(0, 0, 10, 0)
        free = agent_policy_step(agent, two_lane_map, 0.0, leader=None)
        blocked = agent_policy_step(agent, two_lane_map, 0.0, leader=(4.0, 0.0))
        assert blocked.a < free.a
        assert blocked.a <= -6.0

    def test_lane_following_steers_back(self, two_lane_map):
        offset = AgentState(50.0, 1.0, 8.0, 0.0)
        u = agent_policy_step(offset, two_lane_map, 0.0)
        assert u.omega < 0.0  # steer right toward y=0 centerline


class TestClosedLoop:
    def _run(self, planner="tpp", seed=0, agents=(), cfg=None, pc=None):
        scenario = parse_scenario(_scenario_doc(agents))
        cfg = cfg or SimConfig(total_duration=4.0, seed=seed)
        return run_closed_loop(scenario, planner, cfg, pc)

    def test_rejects_unknown_planner(self):
        with pytest.raises(ScenarioError):
            self._run(planner="mpc")

    def test_step_count_and_schema(self):
        trace = self._run()
        assert len(trace.steps) == 40
        step = trace.steps[0]
        assert set(step) == {"t", "ego", "agents", "plan_id", "events"}
        json.dumps(trace.steps)  # serializable

    def test_trace_deterministic(self):
        a = self._run(agents=[_lead_agent()], seed=9)
        b = self._run(agents=[_lead_agent()], seed=9)
        assert json.dumps(a.steps) == json.dumps(b.steps)

    def test_seeds_change_agent_noise(self):
        a = self._run(agents=[_lead_agent()], seed=1)
        b = self._run(agents=[_lead_agent()], seed=2)
        assert json.dumps(a.steps) != json.dumps(b.steps)

    def test_ego_makes_progress(self):
        trace = self._run()
        assert trace.steps[-1]["ego"]["x"] > 20.0

    def test_all_planners_run(self):
        for planner in ("tpp", "ncr", "ncg"):
            trace = self._run(planner=planner, agents=[_lead_agent()])
            assert len(trace.steps) == 40

    def test_cut_in_agent_changes_lane(self):
        behavior = {
            "kind": "cut_in", "probability": 1.0, "trigger_time": 0.5,
            "target_lane": "L0", "brake_probability": 0.0, "target_speed": 10.0,
        }
        cfg = SimConfig(total_duration=8.0, seed=0, ou=OUParams(sigma=0.0))
        trace = self._run(agents=[_lead_agent(x=20.0, y=3.5, v=10.0, behavior=behavior)], cfg=cfg)
        ys = [s["agents"]["cutter" if "cutter" in s["agents"] else "lead"]["y"] for s in trace.steps]
        assert ys[0] > 3.0
        assert min(ys) < 0.5  # wound up in the ego's lane

    def test_cut_in_probability_zero_stays(self):
        behavior = {
            "kind": "cut_in", "probability": 0.0, "trigger_time": 0.5,
            "target_lane": "L0", "target_speed": 10.0,
        }
        cfg = SimConfig(total_duration=6.0, seed=0, ou=OUParams(sigma=0.0))
        trace = self._run(agents=[_lead_agent(x=20.0, y=3.5, v=10.0, behavior=behavior)], cfg=cfg)
        ys = [s["agents"]["lead"]["y"] for s in trace.steps]
        assert min(ys) > 3.0

    def test_agents_sharing_an_id_prefix_draw_independently(self):
        """Ids that differ only after byte 4 seed separate controller streams:
        over 12 seeds, the two agents' cut-in draws do not all agree."""
        behavior = {
            "kind": "cut_in", "probability": 0.5, "trigger_time": 0.0,
            "target_lane": "L0", "brake_probability": 0.0, "target_speed": 10.0,
        }
        agents = [
            {**_lead_agent(x=x, y=3.5, v=10.0, behavior=behavior), "id": aid}
            for aid, x in (("vehicle_a", 20.0), ("vehicle_b", 40.0))
        ]
        cut = {"vehicle_a": [], "vehicle_b": []}
        for seed in range(12):
            cfg = SimConfig(total_duration=1.0, seed=seed, ou=OUParams(sigma=0.0))
            trace = self._run(planner="ncg", agents=agents, cfg=cfg)
            for aid, draws in cut.items():
                draws.append(min(s["agents"][aid]["y"] for s in trace.steps) < 2.5)
        assert any(cut["vehicle_a"]) and not all(cut["vehicle_a"])
        assert any(cut["vehicle_b"]) and not all(cut["vehicle_b"])
        assert cut["vehicle_a"] != cut["vehicle_b"]

    def test_despawn_far_agent(self):
        far = _lead_agent(x=140.0, v=12.0)
        cfg = SimConfig(total_duration=6.0, seed=0)
        trace = self._run(agents=[far], cfg=cfg)
        despawned = [s for s in trace.steps if "lead" in s["events"]["despawn"]]
        assert despawned
        assert "lead" not in trace.steps[-1]["agents"]

    def test_spawner_adds_agents_deterministically(self):
        cfg = SimConfig(
            total_duration=10.0, seed=4,
            spawn=SpawnConfig(enabled=True, rate=120.0, radius_min=20.0, radius_max=40.0),
        )
        a = self._run(cfg=cfg)
        b = self._run(cfg=cfg)
        spawned = [aid for s in a.steps for aid in s["events"]["spawn"]]
        assert spawned
        assert json.dumps(a.steps) == json.dumps(b.steps)

    def test_collision_events_match_recomputation(self, two_lane_map):
        """Stored collision events equal the exact box test on the raw states."""
        from treeplan import Footprint
        from treeplan.world import obb_clearance

        fp = Footprint(4.6, 1.8)
        steps = [
            step
            for lead in (_lead_agent(x=12.0, v=2.0), _lead_agent(x=5.5, v=0.0))
            for step in self._run(agents=[lead], seed=0).steps
        ]
        hits = 0
        for step in steps:
            ego = AgentState(**step["ego"])
            recomputed = sorted(
                aid for aid, sd in step["agents"].items()
                if obb_clearance(ego.x, ego.y, ego.psi, fp, sd["x"], sd["y"], sd["psi"], fp) == 0.0
            )
            assert recomputed == sorted(step["events"]["collision"])
            hits += len(recomputed)
        assert hits

    def test_replan_period_respected(self):
        trace = self._run(agents=[_lead_agent()])
        plan_ids = [s["plan_id"] for s in trace.steps]
        # a fresh plan id appears at every 2 s boundary
        assert plan_ids[0].endswith(":n1") or "@0.0" in plan_ids[0]
        assert len({pid.split(":")[0] for pid in plan_ids}) >= 2


class TestStageAdvance:
    """Replanning every 4 s over 2 s stages: at t = 2 s the ego moves on to a
    stage-2 node of the current plan without growing a new tree."""

    BRAKE = {
        "kind": "cut_in", "probability": 1.0, "trigger_time": 0.0, "target_lane": "L1",
        "brake_probability": 1.0, "brake_decel": 4.0, "brake_duration": 3.0, "target_speed": 10.0,
    }

    @staticmethod
    def _run(monkeypatch, planner, agent, drop_advance_keys=False):
        """Run 4 s and return the trace, the grown trees and what each planner returned."""
        import treeplan.sim as sim
        from treeplan.dp import PolicyTable

        seen = {"trees": [], "ensembles": [], "policies": [], "ncr": [], "ncg": []}

        def record(name, fn, key=None):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                seen[name].append(key(out) if key else out)
                return out
            monkeypatch.setattr(sim, fn.__name__, wrapped)

        def solve(*args, **kwargs):
            values, policy = solve_policy(*args, **kwargs)
            if drop_advance_keys:
                root = policy.pi[(0, ())]
                policy = PolicyTable({k: v for k, v in policy.pi.items() if k[0] != root})
            seen["policies"].append(policy)
            return values, policy

        solve_policy = sim.solve_policy_ec
        record("trees", sim.grow_tree)
        record("ensembles", sim.predict_ensemble)
        record("ncr", sim.plan_ncr, key=lambda nc: nc.path)
        record("ncg", sim.plan_ncg, key=lambda nc: nc.path)
        monkeypatch.setattr(sim, "solve_policy_ec", solve)

        scenario = parse_scenario(_scenario_doc([agent]))
        cfg = SimConfig(total_duration=4.0, replan_period=4.0, seed=0, ou=OUParams(sigma=0.0))
        trace = run_closed_loop(scenario, planner, cfg, PlannerConfig())
        return trace, seen

    @staticmethod
    def _assert_follows(trace, segment):
        """Steps 20..39 (t = 2.1 .. 4.0) lie on the given stage-2 segment."""
        for step in range(20, 40):
            want = segment.state_at(step * 0.1 + 0.1)
            assert trace.steps[step]["ego"] == {"x": want.x, "y": want.y, "v": want.v, "psi": want.psi}

    @pytest.mark.parametrize(
        "agent, branch",
        [
            (_lead_agent(x=20.0, y=3.5, v=12.0), 0),  # keeps its speed
            (_lead_agent(x=20.0, y=3.5, v=10.0, behavior=BRAKE), 1),  # brakes at 4 m/s^2
        ],
    )
    def test_tpp_takes_the_policy_choice_for_the_nearest_branch(self, monkeypatch, agent, branch):
        trace, seen = self._run(monkeypatch, "tpp", agent)
        assert len(seen["trees"]) == 1  # the advance grew no tree
        tree, ensemble, policy = seen["trees"][0], seen["ensembles"][0], seen["policies"][0]
        n1 = policy.pi[(tree.root_id, ())]
        at_2s = trace.steps[19]["agents"]  # agent states when the stage ends

        def distance(child):
            return sum(
                math.hypot(traj.end.x - at_2s[aid]["x"], traj.end.y - at_2s[aid]["y"])
                for aid, traj in child.agent_trajectories.items()
            )

        kids = ensemble.tree_for_ego_node(n1).children(())
        observed = min(kids, key=distance).path
        assert observed == (branch,)
        self._assert_follows(trace, tree.node(policy.pi[(n1, observed)]).segment)
        assert {s["plan_id"] for s in trace.steps} == {trace.steps[0]["plan_id"]}

    def test_missing_policy_entry_replans(self, monkeypatch):
        trace, seen = self._run(monkeypatch, "tpp", _lead_agent(x=20.0, y=3.5, v=12.0), drop_advance_keys=True)
        assert len(seen["trees"]) == 2
        assert trace.steps[19]["plan_id"].startswith("tpp@0.0:")
        assert trace.steps[20]["plan_id"].startswith("tpp@2.1:")
        assert "planner_error" not in trace.steps[20]["events"]

    @pytest.mark.parametrize("planner", ["ncr", "ncg"])
    def test_non_contingent_planners_advance_along_their_path(self, monkeypatch, planner):
        trace, seen = self._run(monkeypatch, planner, _lead_agent(x=20.0, y=3.5, v=10.0, behavior=self.BRAKE))
        other = {"ncr": "ncg", "ncg": "ncr"}[planner]
        assert len(seen["trees"]) == 1 and len(seen[planner]) == 1 and not seen[other]
        path = seen[planner][0]
        self._assert_follows(trace, seen["trees"][0].node(path[2]).segment)
        assert {s["plan_id"] for s in trace.steps} == {trace.steps[0]["plan_id"]}


class TestPlannerFallback:
    """A tree that stops short of the horizon is a planner error: the ego
    then has no committed segment, brakes at a_min and runs no advance."""

    @pytest.mark.parametrize("planner", ["tpp", "ncr", "ncg"])
    def test_truncated_tree_brakes_until_the_next_replan(self, monkeypatch, planner):
        import treeplan.sim as sim

        grown = []
        grow = sim.grow_tree

        def counted(*args, **kwargs):
            grown.append(grow(*args, **kwargs))
            return grown[-1]

        monkeypatch.setattr(sim, "grow_tree", counted)
        pc = PlannerConfig(sampler=SamplerConfig(accel_grid=(), speed_grid=(), lateral_offsets=()))
        scenario = parse_scenario(_scenario_doc([_lead_agent(x=20.0, y=3.5)]))
        trace = run_closed_loop(scenario, planner, SimConfig(total_duration=6.0, replan_period=2.0), pc)

        assert len(grown) == 3 and all(tree.truncated for tree in grown)  # the replans only, no advance
        ego = scenario.ego_state
        for step, rec in enumerate(trace.steps):
            assert rec["plan_id"] == f"fallback@{2.0 * (step // 20):.1f}"
            assert ("planner_error" in rec["events"]) == (step % 20 == 0)
            ego = integrate_unicycle(ego, UnicycleInput(pc.sampler.limits.a_min, 0.0), 0.1, pc.sampler.limits)
            assert rec["ego"] == state_to_dict(ego)
        assert trace.steps[0]["ego"]["v"] == pytest.approx(10.0 - 0.6) and ego.v == 0.0

    def test_error_after_a_plan_drops_the_committed_segment(self, monkeypatch):
        import treeplan.sim as sim

        roots = []
        grow = sim.grow_tree

        def second_truncates(root, lane_map, schedule, config, seed):
            roots.append(root)
            if len(roots) == 2:
                config = SamplerConfig(accel_grid=(), speed_grid=(), lateral_offsets=())
            return grow(root, lane_map, schedule, config, seed)

        monkeypatch.setattr(sim, "grow_tree", second_truncates)
        pc = PlannerConfig()
        scenario = parse_scenario(_scenario_doc([_lead_agent(x=20.0, y=3.5)]))
        trace = run_closed_loop(scenario, "tpp", SimConfig(total_duration=8.0, replan_period=4.0), pc)

        assert len(roots) == 2
        assert trace.steps[39]["plan_id"].startswith("tpp@0.0:")
        ego = AgentState(**trace.steps[39]["ego"])
        for rec in trace.steps[40:]:
            assert rec["plan_id"] == "fallback@4.0"
            ego = integrate_unicycle(ego, UnicycleInput(pc.sampler.limits.a_min, 0.0), 0.1, pc.sampler.limits)
            assert rec["ego"] == state_to_dict(ego)


class TestNoReferenceCycles:
    """A plan and an episode leave no garbage for the cycle collector: each
    result is freed as soon as its last reference goes."""

    @staticmethod
    def _plan_cycle():
        from treeplan.baselines import plan_ncg, plan_ncr
        from treeplan.costs import CostWeights, build_cost_tensor_ec
        from treeplan.dp import policy_expected_cost, solve_policy_ec
        from treeplan.prediction import KinematicPredictor, Scene, predict_ensemble
        from treeplan.sampler import grow_tree

        pc = PlannerConfig()
        scenario = parse_scenario(_scenario_doc([_lead_agent(x=20.0, y=3.5)]))
        lane_map = scenario.lane_map
        agents = {a.id: a.state for a in scenario.agents}
        footprints = {a.id: a.footprint for a in scenario.agents}
        tree = grow_tree(scenario.ego_state, lane_map, pc.schedule, pc.sampler, 0)
        predictor = KinematicPredictor(lane_map=lane_map, branching_factor=2)
        scene = Scene(agents=agents, footprints=footprints, lane_map=lane_map)
        ensemble = predict_ensemble(predictor, scene, tree, pc.schedule, 2, 0)
        weights = CostWeights(goal=scenario.goal)
        costs = build_cost_tensor_ec(tree, ensemble, lane_map, weights, scenario.ego_footprint, footprints)
        _, policy = solve_policy_ec(tree, ensemble, costs)
        policy_expected_cost(tree, ensemble, costs, policy)
        plan_ncr(tree, ensemble, costs)
        plan_ncr(tree, ensemble, costs, worst_case=True)
        plan_ncg(tree, ensemble, costs)
        for t in ensemble.trees.values():
            t.leaf_paths_with_probability()

    @staticmethod
    def _episodes():
        scenario = parse_scenario(_scenario_doc([_lead_agent(x=20.0, y=3.5)]))
        for planner in ("tpp", "ncr", "ncg"):
            run_closed_loop(scenario, planner, SimConfig(total_duration=2.0, seed=1))

    @pytest.mark.parametrize("work", ["_plan_cycle", "_episodes"])
    def test_nothing_left_for_the_collector(self, work):
        import gc

        run = getattr(self, work)
        run()  # warm: first calls may fill module-level caches
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            gc.enable()
