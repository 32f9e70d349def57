"""Finite-horizon tree-MDP solver.

Backward recursion over same-stage (ego node, scenario node) pairs, for a
single scenario tree or an ego-conditioned ensemble (both resolve an ego node
to its scenario tree through tree_for_ego_node), plus an exhaustive
enumeration oracle that certifies optimality on small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .costs import CostTensor
from .errors import StructureError, TooLarge
from .prediction import ECPredictionEnsemble, ScenarioTree
from .sampler import TrajectoryTree


@dataclass(frozen=True)
class ValueTable:
    """V on (ego_id, scen_path) pairs; Q on (child ego_id, parent-stage scen_path)."""

    V: dict = field(default_factory=dict)
    Q: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PolicyTable:
    """pi maps (ego_id, scen_path) -> chosen child ego_id, for stages < N."""

    pi: dict = field(default_factory=dict)


def _check_structure(tree: TrajectoryTree, scenario):
    if tree.max_stage != scenario.max_stage:
        raise StructureError(
            f"ego tree has {tree.max_stage} stages, scenario has {scenario.max_stage}"
        )


def solve_policy(
    tree: TrajectoryTree, scenario: ScenarioTree | ECPredictionEnsemble, costs: CostTensor
):
    """Exact backward recursion over (ego node, scenario node) pairs.

    Each ego node reads its scenario nodes from scenario.tree_for_ego_node:
    one shared ScenarioTree, or for an ensemble the tree of the first mode
    whose ego path passes through the node. Transition probabilities and
    children come from the tree of the candidate child ego node. Ties in the
    argmin break toward the lowest child node id. V at the root pair equals
    the policy's expected cumulative cost.
    """
    _check_structure(tree, scenario)
    N = tree.max_stage
    V: dict = {}
    Q: dict = {}
    pi: dict = {}

    for ego_node in tree.stage_nodes(N):
        for scen in scenario.tree_for_ego_node(ego_node.id).stage_nodes(N):
            V[(ego_node.id, scen.path)] = costs.get(ego_node.id, scen.path)

    for stage in range(N - 1, -1, -1):
        # pairs within a stage are independent; could be computed concurrently
        for ego_node in tree.stage_nodes(stage):
            kids = tree.children(ego_node.id)
            for scen in scenario.tree_for_ego_node(ego_node.id).stage_nodes(stage):
                L = costs.get(ego_node.id, scen.path)
                best_id, best_q = None, math.inf
                for child_id in sorted(kids):
                    exp_v = sum(
                        c.branch_probability * V[(child_id, c.path)]
                        for c in scenario.tree_for_ego_node(child_id).children(scen.path)
                    )
                    q = L + exp_v
                    Q[(child_id, scen.path)] = q
                    # ties resolve to the lowest child id (ascending scan)
                    if q < best_q:
                        best_id, best_q = child_id, q
                V[(ego_node.id, scen.path)] = best_q
                pi[(ego_node.id, scen.path)] = best_id

    return ValueTable(V=V, Q=Q), PolicyTable(pi=pi)


solve_policy_ec = solve_policy


def policy_expected_cost(
    tree: TrajectoryTree,
    scenario,
    costs: CostTensor,
    policy: PolicyTable,
) -> float:
    """Exact expected cumulative cost of a deterministic policy."""
    root_scen = scenario.tree_for_ego_node(tree.root_id).stage_nodes(0)[0]
    return _policy_cost_from(scenario, costs, policy, tree.max_stage, tree.root_id, root_scen.path, 0)


def _policy_cost_from(scenario, costs, policy, N: int, ego_id: int, scen_path: tuple, stage: int) -> float:
    c = costs.get(ego_id, scen_path)
    if stage == N:
        return c
    child_id = policy.pi[(ego_id, scen_path)]
    total = c
    for child in scenario.tree_for_ego_node(child_id).children(scen_path):
        total += child.branch_probability * _policy_cost_from(
            scenario, costs, policy, N, child_id, child.path, stage + 1
        )
    return total


def count_policies(tree: TrajectoryTree, scenario) -> int:
    """Number of deterministic (ego node, scenario node) -> child mappings."""
    total = 1
    for stage in range(tree.max_stage):
        for ego_node in tree.stage_nodes(stage):
            n_children = len(tree.children(ego_node.id))
            for _ in scenario.tree_for_ego_node(ego_node.id).stage_nodes(stage):
                total *= max(n_children, 1)
    return total


def brute_force_value(
    tree: TrajectoryTree,
    scenario,
    costs: CostTensor,
    cap: int = 10**7,
):
    """Enumerate every deterministic policy; return (optimal value, one argmin).

    The independent certificate for the backward recursion: each mapping's
    expected cost is computed by direct summation over scenario paths.
    """
    _check_structure(tree, scenario)
    n_policies = count_policies(tree, scenario)
    if n_policies > cap:
        raise TooLarge(f"{n_policies} policies exceed cap {cap}")

    pairs = []
    for stage in range(tree.max_stage):
        for ego_node in tree.stage_nodes(stage):
            kids = tree.children(ego_node.id)
            for scen in scenario.tree_for_ego_node(ego_node.id).stage_nodes(stage):
                pairs.append(((ego_node.id, scen.path), kids))

    best_value, best_policy = math.inf, None
    keys = [p[0] for p in pairs]
    for combo in itertools.product(*(p[1] for p in pairs)):
        policy = PolicyTable(pi=dict(zip(keys, combo)))
        value = policy_expected_cost(tree, scenario, costs, policy)
        if value < best_value - 1e-15:
            best_value, best_policy = value, policy
    return best_value, best_policy
