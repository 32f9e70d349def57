"""Plan once on the cut-in scenario and print the chosen contingent policy.

Builds the ego trajectory tree, predicts an ego-conditioned scenario tree
per leaf, runs the backward recursion, and compares the policy value with
the non-contingent baselines.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from treeplan import (
    KinematicPredictor,
    Scene,
    build_cost_tensor_ec,
    grow_tree,
    plan_ncg,
    plan_ncr,
    predict_ensemble,
)
from treeplan.config import load_planner_config, load_scenario
from treeplan.dp import solve_policy_ec

REPO = Path(__file__).resolve().parents[1]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default=str(REPO / "scenarios" / "cutin.json"))
    ap.add_argument("--config", default=str(REPO / "configs" / "cutin_eval.json"))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    scenario = load_scenario(args.scenario)
    cfg = load_planner_config(args.config)
    weights = replace(cfg.weights, goal=scenario.goal)

    tree = grow_tree(scenario.ego_state, scenario.lane_map, cfg.schedule, cfg.sampler, seed=args.seed)
    footprints = {a.id: a.footprint for a in scenario.agents}
    scene = Scene(
        agents={a.id: a.state for a in scenario.agents},
        footprints=footprints,
        lane_map=scenario.lane_map,
    )
    p = cfg.predictor
    predictor = KinematicPredictor(
        lane_map=scenario.lane_map,
        branching_factor=p.branching_factor,
        maintain_prior=p.maintain_prior,
        brake_prior=p.brake_prior,
        b_decel=p.b_decel,
        tau_yield=p.tau_yield,
        yield_boost=p.yield_boost,
    )
    ensemble = predict_ensemble(
        predictor, scene, tree, cfg.schedule, cfg.predictor.branching_factor, seed=args.seed
    )
    costs = build_cost_tensor_ec(
        tree, ensemble, scenario.lane_map, weights, scenario.ego_footprint, footprints
    )
    values, policy = solve_policy_ec(tree, ensemble, costs)

    print(f"ego tree: {len(tree.nodes)} nodes, {len(tree.leaves())} leaves")
    print(f"policy value at root: {values.V[(0, ())]:.4f}")
    print(f"NCR (committed, expectation-scored): {plan_ncr(tree, ensemble, costs).expected_cost:.4f}")
    ncg = plan_ncg(tree, ensemble, costs)
    print(f"NCG (greedy vs most likely scenario): {ncg.expected_cost:.4f} on path {ncg.path}")
    print("root decision per stage-1 scenario branch:")
    for key, child in sorted(policy.pi.items()):
        if key[0] == 0:
            print(f"  scenario {key[1]} -> ego child {child}")


if __name__ == "__main__":
    main()
