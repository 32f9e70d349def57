"""Strict parsing of scenario and planner-config documents."""

import copy
import json
from pathlib import Path

import pytest

from treeplan.cli import EXIT_VALIDATION, main
from treeplan.config import load_planner_config, load_scenario, parse_planner_config, parse_scenario
from treeplan.errors import ScenarioError

REPO = Path(__file__).resolve().parents[1]

SCENARIO = {
    "name": "mini",
    "map": {
        "lanes": [{"id": "L0", "centerline": [[0.0, 0.0], [100.0, 0.0]], "speed_limit": 12.0, "successors": []}],
        "drivable_area": [[[0.0, -2.0], [100.0, -2.0], [100.0, 2.0], [0.0, 2.0]]],
    },
    "ego": {
        "state": {"x": 0.0, "y": 0.0, "v": 10.0, "psi": 0.0},
        "footprint": {"length": 4.6, "width": 1.8},
        "goal": [90.0, 0.0],
    },
    "agents": [
        {
            "id": "lead",
            "state": {"x": 30.0, "y": 0.0, "v": 8.0, "psi": 0.0},
            "footprint": {"length": 4.6, "width": 1.8},
            "behavior": {"kind": "lane_follow", "anything": [1, 2, 3]},
        }
    ],
}

CONFIG = {
    "sampler": {"accel_grid": [-2.0, 0.0, 2.0], "yaw_rate_grid": [0.0], "speed_grid": [],
                "lateral_offsets": [], "max_children": 2},
    "limits": {"v_max": 25.0},
    "schedule": {"num_stages": 2, "stage_duration": 2.0, "dt": 0.1},
    "predictor": {"kind": "kinematic", "branching_factor": 2},
    "cost": {"w_collision": 10.0, "collision_scale": 2.0},
    "planner": "tpp",
    "ncr_worst_case": False,
    "sim": {"total_duration": 4.0, "sim_dt": 0.1, "replan_period": 2.0,
            "spawn": {"enabled": False}, "ou": {"sigma": 0.1}},
    "seed": 0,
}


def _edit(doc, path, key, value):
    out = copy.deepcopy(doc)
    target = out
    for step in path:
        target = target[step]
    target[key] = value
    return out


class TestAccepted:
    def test_full_documents_parse(self):
        spec = parse_scenario(SCENARIO)
        assert spec.agents[0].behavior["anything"] == [1, 2, 3]  # behavior stays free-form
        cfg = parse_planner_config(CONFIG)
        assert cfg.predictor.kind == "kinematic" and cfg.sim.ou.sigma == 0.1

    def test_empty_config_takes_defaults(self):
        assert parse_planner_config({}).predictor.kind == "kinematic"

    @pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.json")), ids=lambda p: p.name)
    def test_shipped_configs_parse(self, path):
        load_planner_config(path)

    @pytest.mark.parametrize("path", sorted((REPO / "scenarios").glob("*.json")), ids=lambda p: p.name)
    def test_shipped_scenarios_parse(self, path):
        load_scenario(path)


PLANNER_REJECTIONS = {
    "top_level": ((), "bogus", 1),
    "sampler": (("sampler",), "grid", [0.0]),
    "limits": (("limits",), "jerk_max", 1.0),
    "schedule": (("schedule",), "stages", 3),
    "predictor": (("predictor",), "model", "x"),
    "cost": (("cost",), "w_speed", 1.0),
    "sim": (("sim",), "steps", 10),
    "sim_seed": (("sim",), "seed", 3),
    "sim_spawn": (("sim", "spawn"), "density", 1.0),
    "sim_ou": (("sim", "ou"), "kappa", 1.0),
}


@pytest.mark.parametrize("case", sorted(PLANNER_REJECTIONS))
def test_planner_config_rejects_unknown_key(case):
    path, key, value = PLANNER_REJECTIONS[case]
    with pytest.raises(ScenarioError, match=key):
        parse_planner_config(_edit(CONFIG, path, key, value))


@pytest.mark.parametrize("kind", ["transformer", "Kinematic", ""])
def test_planner_config_rejects_unknown_predictor_kind(kind):
    with pytest.raises(ScenarioError, match="predictor kind"):
        parse_planner_config(_edit(CONFIG, ("predictor",), "kind", kind))


VALUE_REJECTIONS = {
    "replan_period_zero": (("sim",), "replan_period", 0.0),
    "replan_period_negative": (("sim",), "replan_period", -2.0),
    "total_duration_zero": (("sim",), "total_duration", 0.0),
    "total_duration_negative": (("sim",), "total_duration", -4.0),
    "total_duration_under_one_step": (("sim",), "total_duration", 0.04),
    "total_duration_off_grid_up": (("sim",), "total_duration", 2.26),
    "total_duration_off_grid_down": (("sim",), "total_duration", 2.05),
    "num_stages_zero": (("schedule",), "num_stages", 0),
    "num_stages_negative": (("schedule",), "num_stages", -1),
    "branching_factor_zero": (("predictor",), "branching_factor", 0),
}


@pytest.mark.parametrize("case", sorted(VALUE_REJECTIONS))
def test_planner_config_rejects_value_the_planner_cannot_run(case):
    path, key, value = VALUE_REJECTIONS[case]
    with pytest.raises(ScenarioError):
        parse_planner_config(_edit(CONFIG, path, key, value))


TYPE_REJECTIONS = {
    "bool_as_string": ((), "ncr_worst_case", "false"),
    "bool_as_integer": ((), "ncr_worst_case", 0),
    "spawn_enabled_string": (("sim", "spawn"), "enabled", "no"),
    "int_as_float": (("schedule",), "num_stages", 2.5),
    "int_as_whole_float": (("sampler",), "max_children", 2.0),
    "int_as_bool": (("predictor",), "branching_factor", True),
    "max_children_fraction": (("sampler",), "max_children", 2.7),
    "branching_factor_fraction": (("predictor",), "branching_factor", 2.5),
    "seed_string": ((), "seed", "0"),
    "max_agents_fraction": (("sim", "spawn"), "max_agents", 1.5),
    "grid_string": (("sampler",), "accel_grid", "abc"),
    "grid_of_strings": (("sampler",), "yaw_rate_grid", ["0.1"]),
    "grid_of_bools": (("sampler",), "speed_grid", [True]),
    "grid_number": (("sampler",), "lateral_offsets", 1.0),
    "float_string": (("sim", "ou"), "sigma", "0.2"),
    "float_bool": (("limits",), "v_max", True),
    "float_null": (("cost",), "w_goal", None),
    "prior_string": (("predictor",), "maintain_prior", "0.7"),
    "b_decel_string": (("predictor",), "b_decel", "4"),
    "sim_dt_list": (("sim",), "sim_dt", [0.1]),
    "stage_duration_string": (("schedule",), "stage_duration", "2"),
    "planner_number": ((), "planner", 1),
    "predictor_kind_number": (("predictor",), "kind", 1),
}


@pytest.mark.parametrize("case", sorted(TYPE_REJECTIONS))
def test_planner_config_rejects_value_of_the_wrong_type(case):
    path, key, value = TYPE_REJECTIONS[case]
    with pytest.raises(ScenarioError, match=f"{key} must be"):
        parse_planner_config(_edit(CONFIG, path, key, value))


@pytest.mark.parametrize("maintain, brake", [(0.7, -0.7), (-0.1, 0.3), (0.0, 0.0)])
def test_planner_config_rejects_priors_without_positive_sum(maintain, brake):
    doc = _edit(_edit(CONFIG, ("predictor",), "maintain_prior", maintain), ("predictor",), "brake_prior", brake)
    with pytest.raises(ScenarioError, match="prior"):
        parse_planner_config(doc)


def test_planner_config_takes_integers_as_floats():
    doc = _edit(_edit(CONFIG, ("predictor",), "b_decel", 4), ("predictor",), "brake_prior", 0)
    cfg = parse_planner_config(_edit(_edit(doc, ("sampler",), "accel_grid", [-2, 0, 2]), ("sim",), "total_duration", 4))
    assert cfg.predictor.b_decel == 4.0 and type(cfg.predictor.b_decel) is float
    assert cfg.predictor.brake_prior == 0.0 and cfg.predictor.maintain_prior == 0.7
    assert cfg.sampler.accel_grid == (-2.0, 0.0, 2.0) and all(type(a) is float for a in cfg.sampler.accel_grid)
    assert type(cfg.sim.total_duration) is float


SCENARIO_REJECTIONS = {
    "top_level": ((), "author", "x"),
    "map": (("map",), "crs", "utm"),
    "lane": (("map", "lanes", 0), "width", 3.5),
    "ego": (("ego",), "route", []),
    "ego_state": (("ego", "state"), "a", 0.0),
    "ego_footprint": (("ego", "footprint"), "height", 1.5),
    "agent": (("agents", 0), "intent", "cut_in"),
    "agent_state": (("agents", 0, "state"), "omega", 0.0),
    "agent_footprint": (("agents", 0, "footprint"), "mass", 1500.0),
}


@pytest.mark.parametrize("case", sorted(SCENARIO_REJECTIONS))
def test_scenario_rejects_unknown_key(case):
    path, key, value = SCENARIO_REJECTIONS[case]
    with pytest.raises(ScenarioError, match=key):
        parse_scenario(_edit(SCENARIO, path, key, value))


def test_non_object_section_rejected():
    with pytest.raises(ScenarioError):
        parse_planner_config({"sampler": [1, 2]})
    with pytest.raises(ScenarioError):
        parse_scenario(_edit(SCENARIO, (), "ego", [0.0, 0.0]))


CUT_IN = {"kind": "cut_in", "probability": 1.0, "trigger_time": 0.5, "target_lane": "L0",
          "brake_probability": 0.5, "brake_decel": 4.0, "brake_duration": 2.0, "target_speed": 10.0}


def _with_behavior(behavior):
    return _edit(SCENARIO, ("agents", 0), "behavior", behavior)


def test_cut_in_the_simulator_can_run_is_stored_unchanged():
    behavior = {**CUT_IN, "note": "free-form keys stay allowed", "probability": 1}
    spec = parse_scenario(_with_behavior(behavior))
    assert spec.agents[0].behavior == behavior
    assert parse_scenario(_with_behavior({"kind": "cut_in", "target_lane": "L0"})).agents[0].behavior


MISSING = object()  # the key is left out
BEHAVIOR_REJECTIONS = {
    "target_lane_unknown": ("target_lane", "nope"),
    "target_lane_missing": ("target_lane", MISSING),
    "target_lane_not_a_string": ("target_lane", ["L0"]),
    "probability_string": ("probability", "high"),
    "probability_numeric_string": ("probability", "0.5"),
    "brake_probability_list": ("brake_probability", [0.5]),
    "trigger_time_bool": ("trigger_time", True),
    "brake_duration_null": ("brake_duration", None),
    "brake_decel_string": ("brake_decel", "hard"),
    "target_speed_string": ("target_speed", "fast"),
}


@pytest.mark.parametrize("case", sorted(BEHAVIOR_REJECTIONS))
def test_scenario_rejects_cut_in_the_simulator_cannot_run(case):
    key, value = BEHAVIOR_REJECTIONS[case]
    behavior = {**CUT_IN, key: value}
    if value is MISSING:
        del behavior[key]
    with pytest.raises(ScenarioError, match=f"lead: .*{key}"):
        parse_scenario(_with_behavior(behavior))


@pytest.mark.parametrize("kind", ["cutin", "Cut_In", "lane-follow", "", None, 1])
def test_scenario_rejects_unknown_behavior_kind(kind):
    with pytest.raises(ScenarioError, match="lead: unknown behavior kind"):
        parse_scenario(_with_behavior({"kind": kind, "target_lane": "L0"}))


def test_missing_behavior_kind_is_lane_following():
    assert parse_scenario(_with_behavior({"target_speed": 5.0, "note": "x"})).agents[0].behavior["note"] == "x"


def test_target_speed_checked_for_every_kind():
    with pytest.raises(ScenarioError, match="target_speed"):
        parse_scenario(_with_behavior({"kind": "lane_follow", "target_speed": "fast"}))
    # a cut-in's fields mean nothing to another kind
    assert parse_scenario(_with_behavior({"kind": "lane_follow", "target_lane": "nope", "probability": "x"}))


def _assert_cli_rejects(tmp_path, config, scenario=SCENARIO):
    scen, cfg = tmp_path / "s.json", tmp_path / "c.json"
    scen.write_text(json.dumps(scenario))
    cfg.write_text(json.dumps(config))
    out = tmp_path / "never.jsonl"
    assert main(["run", "--scenario", str(scen), "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert not out.exists()


def test_cli_rejects_unknown_key(tmp_path):
    _assert_cli_rejects(tmp_path, _edit(CONFIG, ("cost",), "w_speed", 1.0))


def test_cli_rejects_zero_replan_period(tmp_path):
    _assert_cli_rejects(tmp_path, _edit(CONFIG, ("sim",), "replan_period", 0.0))


@pytest.mark.parametrize("path, key, value", [((), "ncr_worst_case", "false"), (("predictor",), "b_decel", "4")])
def test_cli_rejects_value_of_the_wrong_type(tmp_path, path, key, value):
    _assert_cli_rejects(tmp_path, _edit(CONFIG, path, key, value))


def test_cli_rejects_misspelt_behavior_kind(tmp_path):
    _assert_cli_rejects(tmp_path, CONFIG, _with_behavior({**CUT_IN, "kind": "cutin"}))


def test_cli_rejects_off_grid_total_duration(tmp_path):
    _assert_cli_rejects(tmp_path, _edit(CONFIG, ("sim",), "total_duration", 2.26))


@pytest.mark.parametrize("key, value", [("target_lane", "nope"), ("brake_decel", "hard")])
def test_cli_rejects_cut_in_the_simulator_cannot_run(tmp_path, key, value):
    _assert_cli_rejects(tmp_path, CONFIG, _with_behavior({**CUT_IN, key: value}))


NAN, INF = float("nan"), float("inf")
# each edit leaves a scenario the simulator cannot run: (path, key, value, piece of the message)
SCENARIO_MALFORMED = {
    "goal_one_number": (("ego",), "goal", [5.0], "two numbers"),
    "goal_three_numbers": (("ego",), "goal", [5, 1, 3], "two numbers"),
    "goal_empty": (("ego",), "goal", [], "two numbers"),
    "goal_a_number": (("ego",), "goal", 5.0, "two numbers"),
    "goal_nan": (("ego",), "goal", [NAN, 0.0], "finite"),
    "goal_infinite": (("ego",), "goal", [90.0, -INF], "finite"),
    "goal_not_numbers": (("ego",), "goal", ["far", "away"], "invalid scenario"),
    "no_drivable_polygon": (("map",), "drivable_area", [], "drivable-area polygon"),
    "ego_x_nan": (("ego", "state"), "x", NAN, "finite"),
    "ego_speed_infinite": (("ego", "state"), "v", INF, "finite"),
    "agent_x_nan": (("agents", 0, "state"), "x", NAN, "finite"),
    "agent_heading_nan": (("agents", 0, "state"), "psi", NAN, "finite"),
    "ego_length_nan": (("ego", "footprint"), "length", NAN, "finite"),
    "agent_width_infinite": (("agents", 0, "footprint"), "width", INF, "finite"),
}


@pytest.mark.parametrize("case", sorted(SCENARIO_MALFORMED))
def test_scenario_rejects_what_the_simulator_cannot_run(case):
    path, key, value, message = SCENARIO_MALFORMED[case]
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(_edit(SCENARIO, path, key, value))


def test_scenario_goal_is_two_floats():
    assert parse_scenario(_edit(SCENARIO, ("ego",), "goal", [90, 1])).goal == (90.0, 1.0)
    assert all(type(g) is float for g in parse_scenario(SCENARIO).goal)


@pytest.mark.parametrize("case", ["goal_one_number", "goal_three_numbers", "no_drivable_polygon", "agent_x_nan"])
def test_cli_rejects_malformed_scenario(tmp_path, case):
    path, key, value, _ = SCENARIO_MALFORMED[case]
    _assert_cli_rejects(tmp_path, CONFIG, _edit(SCENARIO, path, key, value))
