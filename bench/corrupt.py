"""Show that every benchmark check fails on a deliberately corrupted result.

    python3 bench/corrupt.py

Plans one dense-plan scene and runs cut-in episodes until one has a collision,
checks that the true results pass every check, then corrupts one field at a
time (a cost entry, a branch probability, a collision event, ...) and runs
the check that must catch it. Prints one line per corruption and exits 1 if
any corruption goes unnoticed.
"""

import copy
import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(1, str(ROOT / "src"))

import numpy as np  # noqa: E402

from treeplan.prediction import ECPredictionEnsemble, ScenarioTree  # noqa: E402
from treeplan.sampler import TrajectoryTree, TreeNode  # noqa: E402
from treeplan.world import AgentState, Trajectory  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _with_node(tree, node_id, **changes):
    nodes = tuple(dataclasses.replace(n, **changes) if n.id == node_id else n for n in tree.nodes)
    return TrajectoryTree(nodes=nodes, schedule=tree.schedule, truncated=tree.truncated)


def _with_samples(traj, samples):
    return Trajectory(t0=traj.t0, dt=traj.dt, samples=tuple(samples))


def _shift(state, dx=0.0, dv=0.0):
    return AgentState(state.x + dx, state.y, state.v + dv, state.psi)


def _with_scen_node(ensemble, mode_id, path, node):
    trees = dict(ensemble.trees)
    nodes = dict(trees[mode_id].nodes)
    nodes[path] = node
    trees[mode_id] = ScenarioTree(nodes=nodes, schedule=trees[mode_id].schedule)
    return ECPredictionEnsemble(modes=ensemble.modes, trees=trees)


def plan_corruptions(inp, result):
    tree, ensemble, costs, values, policy, ncr, ncg = result
    cfg = inp.cfg
    n_stages = cfg.schedule.num_stages
    bf = cfg.predictor.branching_factor

    def ego(t):
        return lambda: checks.check_ego_tree(t, cfg.schedule, cfg.sampler.max_children, cfg.sampler.limits.v_max,
                                             inp.scenario.ego_state)

    def shape(e):
        return lambda: checks.check_scenario_trees(e, tree, bf, n_stages)

    def causal(e):
        return lambda: checks.check_causal_consistency(e, n_stages)

    keys = checks.sample_cost_keys(costs, np.random.default_rng(0), workloads.COST_SAMPLES)

    def cost(c):
        return lambda: checks.check_cost_tensor(tree, ensemble, c, inp, keys)

    def dp(v=values, p=policy, r=ncr):
        return lambda: checks.check_policy(tree, ensemble, costs, v, p, r, ncg)

    child = tree.nodes[1]
    seg = child.segment.samples
    yield "ego tree", "true result", ego(tree), False
    yield "ego tree", "child segment start moved 0.5 m", ego(
        _with_node(tree, child.id, segment=_with_samples(child.segment, [_shift(seg[0], dx=0.5)] + list(seg[1:])))), True
    yield "ego tree", "one sample dropped from a segment", ego(
        _with_node(tree, child.id, segment=_with_samples(child.segment, seg[:-1]))), True
    yield "ego tree", "speed above v_max", ego(
        _with_node(tree, child.id, segment=_with_samples(
            child.segment, list(seg[:3]) + [_shift(seg[3], dv=cfg.sampler.limits.v_max)] + list(seg[4:])))), True
    extra = TreeNode(id=max(n.id for n in tree.nodes) + 1, stage=1, parent_id=0, segment=child.segment)
    yield "ego tree", "one child more than max_children", ego(
        TrajectoryTree(nodes=tree.nodes + (extra,), schedule=tree.schedule)), True

    mode = ensemble.modes[0]
    first = ensemble.trees[mode.mode_id].nodes[(0,)]
    yield "scenario shape", "true result", shape(ensemble), False
    yield "scenario shape", "one branch probability moved by 0.05", shape(
        _with_scen_node(ensemble, mode.mode_id, (0,), dataclasses.replace(
            first, branch_probability=first.branch_probability + 0.05))), True
    yield "scenario shape", "one child more than the branching factor", shape(
        _with_scen_node(ensemble, mode.mode_id, (bf,), dataclasses.replace(first, path=(bf,), branch_probability=0.0))
    ), True

    # a mode sharing mode 0's stage-1 ego prefix must carry the same stage-1 nodes
    twin = next(m for m in ensemble.modes[1:] if m.ego_path[:2] == mode.ego_path[:2])
    node = ensemble.trees[twin.mode_id].nodes[(0,)]
    aid = sorted(node.agent_trajectories)[0]
    traj = node.agent_trajectories[aid]
    moved = {**node.agent_trajectories, aid: _with_samples(
        traj, list(traj.samples[:-1]) + [_shift(traj.samples[-1], dx=0.01)])}
    yield "causal consistency", "true result", causal(ensemble), False
    yield "causal consistency", f"one sample of mode {twin.mode_id} moved 1 cm", causal(
        _with_scen_node(ensemble, twin.mode_id, (0,), dataclasses.replace(node, agent_trajectories=moved))), True

    yield "cost tensor", "true result", cost(costs), False
    changed = dataclasses.replace(costs, values={**costs.values, keys[0]: costs.values[keys[0]] + 0.01})
    yield "cost tensor", f"entry {keys[0]} changed by 0.01", cost(changed), True
    missing = {k: v for k, v in costs.values.items() if k != keys[-1]}
    yield "cost tensor", f"entry {keys[-1]} dropped", cost(dataclasses.replace(costs, values=missing)), True

    root = (0, ())
    yield "dp value", "true result", dp(), False
    bumped = dataclasses.replace(values, V={**values.V, root: values.V[root] + 1e-6})
    yield "dp value", "root value raised by 1e-6", dp(v=bumped), True
    worst = max(tree.children(0), key=lambda k: values.Q[(k, ())])
    yield "policy", f"root choice switched to child {worst}", dp(
        p=dataclasses.replace(policy, pi={**policy.pi, root: worst})), True
    yield "dominance", "plan_ncr cost raised by 0.1", dp(
        r=dataclasses.replace(ncr, expected_cost=ncr.expected_cost + 0.1)), True
    others = [tuple(tree.path_to(leaf.id)) for leaf in tree.leaves() if tuple(tree.path_to(leaf.id)) != tuple(ncr.path)]
    yield "dominance", "plan_ncr path swapped for another path", dp(
        r=dataclasses.replace(ncr, path=others[0])), True


def episode_corruptions(work):
    for seed in range(200):
        job = ("ncg", seed)
        trace, crash, offroad, coverage = work.episode(job)
        hit = next((k for k, s in enumerate(trace.steps) if s["events"]["collision"]), None)
        if hit is not None:
            break
    else:
        raise RuntimeError("no cut-in episode with a collision in 200 seeds")
    n = len(trace.steps)

    def ep(tr, c=crash, o=offroad):
        return lambda: checks.check_episode(tr, c, o, work.ep)

    def edited(edit):
        tr = copy.deepcopy(trace)
        edit(tr.steps)
        return tr

    def drop_collision(steps):
        steps[hit]["events"]["collision"] = []

    def flip_offroad(steps):
        steps[n // 2]["events"]["offroad"] = not steps[n // 2]["events"]["offroad"]

    def teleport(steps):
        steps[n // 2]["ego"]["x"] += 3.0

    def restamp(steps):
        steps[5]["t"] += 0.05

    def nudge_agent(steps):
        aid = sorted(steps[-1]["agents"])[0]
        steps[-1]["agents"][aid]["x"] += 1e-6

    yield "trace", f"true result (ncg, seed {seed})", ep(trace), False
    yield "trace", "last step removed", ep(edited(lambda s: s.pop())), True
    yield "trace", "one time stamp moved", ep(edited(restamp)), True
    yield "trace", f"collision event at step {hit} dropped", ep(edited(drop_collision)), True
    yield "trace", "one offroad flag flipped", ep(edited(flip_offroad)), True
    yield "trace", "ego moved 3 m in one step", ep(edited(teleport)), True
    yield "rates", "crash rate raised by one step", ep(trace, c=crash + 1.0 / n), True
    rerun = work.episode(job)[0]
    yield "rerun", "true result", lambda: checks.check_rerun(trace, rerun), False
    yield "rerun", "one agent position moved 1e-6 m", lambda: checks.check_rerun(trace, edited(nudge_agent)), True


def main() -> int:
    dense = workloads.make("dense-plan", 0, ROOT)
    inp = dense.inputs[0]
    cases = list(plan_corruptions(inp, workloads.plan(inp)))
    cases += list(episode_corruptions(workloads.make("cutin-loop", 0, ROOT)))
    missed = 0
    for check, what, run, must_fail in cases:
        try:
            run()
            caught = None
        except checks.CheckFailed as exc:
            caught = str(exc)
        ok = (caught is not None and caught.startswith(check)) if must_fail else caught is None
        missed += not ok
        verdict = "caught" if caught else "passes"
        print(f"{'ok  ' if ok else 'MISS'} {check:18s} {what:45s} {verdict}{': ' + caught if caught else ''}")
    print(f"{len(cases)} cases, {missed} wrong")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
