"""Policy planning over ego trajectory trees and ego-conditioned scenario trees."""

from .world import (
    AgentState,
    DynamicsLimits,
    Footprint,
    LaneGraph,
    Lane,
    Trajectory,
    UnicycleInput,
    check_collision,
    integrate_unicycle,
    is_offroad,
    project_to_lane,
)
from .sampler import (
    SamplerConfig,
    SplineSegment,
    StageSchedule,
    TrajectoryTree,
    fit_spline,
    grow_tree,
    sample_terminals,
)
from .prediction import (
    ECMode,
    ECPredictionEnsemble,
    KinematicPredictor,
    Scene,
    ScenarioNode,
    ScenarioTree,
    flatten_ec_modes,
    predict_ensemble,
    validate_causal_consistency,
)
from .costs import CostTensor, CostWeights, build_cost_tensor, build_cost_tensor_ec
from .dp import (
    PolicyTable,
    ValueTable,
    brute_force_value,
    policy_expected_cost,
    solve_policy,
    solve_policy_ec,
)
from .baselines import NonContingentPlan, path_expected_cost, plan_ncg, plan_ncr
from .sim import SimTrace, agent_policy_step, ou_step, run_closed_loop
from .config import PlannerConfig, ScenarioSpec, SimConfig, load_planner_config, load_scenario
from .metrics import ade_fde, crash_and_offroad_rates, kde_coverage

__version__ = "0.1.0"
