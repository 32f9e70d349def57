"""Non-contingent baseline planners sharing the sampler and predictions.

NCR commits to the single root-to-leaf ego path with the best expected cost
over all predicted branches; NCG plans against the single most likely
scenario path only. Neither switches on observations: a committed path is the
policy that picks the path's next node whatever branch it observes
(path_policy). The scenario argument is a ScenarioTree or an
ECPredictionEnsemble; structure is read through its tree_for_ego_node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .costs import CostTensor
from .dp import PolicyTable, policy_expected_cost
from .sampler import TrajectoryTree


@dataclass(frozen=True)
class NonContingentPlan:
    path: tuple  # root-to-leaf ego node ids
    expected_cost: float


def _ego_paths(tree: TrajectoryTree) -> list:
    return [tuple(tree.path_to(leaf.id)) for leaf in tree.leaves()]


def path_policy(scenario, ego_path: tuple) -> PolicyTable:
    """The policy that follows a root-to-leaf ego path whatever branch it observes:
    (ego_path[i], s.path) -> ego_path[i + 1] for each stage-i scenario node s."""
    pi = {}
    for i, (ego_id, next_id) in enumerate(zip(ego_path, ego_path[1:])):
        for scen in scenario.tree_for_ego_node(ego_id).stage_nodes(i):
            pi[(ego_id, scen.path)] = next_id
    return PolicyTable(pi=pi)


def path_expected_cost(
    tree: TrajectoryTree, scenario, costs: CostTensor, ego_path: tuple
) -> float:
    """Expected cumulative cost of one fixed root-to-leaf ego path over all branches."""
    return policy_expected_cost(tree, scenario, costs, path_policy(scenario, ego_path))


def path_worst_case_cost(
    tree: TrajectoryTree, scenario, costs: CostTensor, ego_path: tuple
) -> float:
    """Worst-case (max over branches) cumulative cost of one fixed root-to-leaf ego path."""
    return _worst_from(scenario, costs, ego_path, 0, ())


def _worst_from(scenario, costs: CostTensor, ego_path: tuple, stage: int, scen_path: tuple) -> float:
    c = costs.get(ego_path[stage], scen_path)
    if stage == len(ego_path) - 1:
        return c
    return c + max(
        _worst_from(scenario, costs, ego_path, stage + 1, child.path)
        for child in scenario.tree_for_ego_node(ego_path[stage + 1]).children(scen_path)
    )


def plan_ncr(
    tree: TrajectoryTree,
    scenario,
    costs: CostTensor,
    worst_case: bool = False,
) -> NonContingentPlan:
    """Best fixed ego path against all predicted branches.

    Default scoring is the probability-weighted expectation; worst_case=True
    switches to the max over branches (sensitivity variant).
    """
    score = path_worst_case_cost if worst_case else path_expected_cost
    best_path, best_cost = None, math.inf
    for ego_path in _ego_paths(tree):
        c = score(tree, scenario, costs, ego_path)
        if c < best_cost:
            best_path, best_cost = ego_path, c
    if not worst_case:
        return NonContingentPlan(path=best_path, expected_cost=best_cost)
    expected = path_expected_cost(tree, scenario, costs, best_path)
    return NonContingentPlan(path=best_path, expected_cost=expected)


def most_likely_scenario_path(scenario, ego_path: tuple) -> list:
    """Max-probability-product root-to-leaf scenario path, lowest path on ties.

    Scenario structure is read along the given ego path (relevant under
    ego-conditioning, where each ego path carries its own tree).
    """
    best_path, best_prob = None, -1.0
    # depth first, children in order, so the first of tied paths wins
    stack = [(0, (), 1.0, [()])]
    while stack:
        stage, scen_path, prob, acc = stack.pop()
        if stage == len(ego_path) - 1:
            if prob > best_prob + 1e-15:
                best_path, best_prob = acc, prob
            continue
        kids = scenario.tree_for_ego_node(ego_path[stage + 1]).children(scen_path)
        stack += [(stage + 1, c.path, prob * c.branch_probability, acc + [c.path]) for c in reversed(kids)]
    return best_path


def plan_ncg(tree: TrajectoryTree, scenario, costs: CostTensor) -> NonContingentPlan:
    """Best fixed ego path against the most likely scenario path only.

    The reported expected_cost is the greedy objective (cost along the most
    likely path); the full-distribution cost of the chosen path is available
    via path_expected_cost.
    """
    best_path, best_cost = None, math.inf
    for ego_path in _ego_paths(tree):
        scen_seq = most_likely_scenario_path(scenario, ego_path)
        c = sum(costs.get(ego_path[i], scen_seq[i]) for i in range(len(ego_path)))
        if c < best_cost:
            best_path, best_cost = ego_path, c
    return NonContingentPlan(path=best_path, expected_cost=best_cost)
