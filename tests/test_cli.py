"""Command-line surface: run, eval, verify; canonical outputs and exit codes."""

import csv
import json
from pathlib import Path

import pytest

from treeplan.cli import (
    CSV_COLUMNS,
    EXIT_OK,
    EXIT_VALIDATION,
    aggregate_rows,
    main,
)
from treeplan.config import (
    canonical_dumps,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
)

SCENARIO = {
    "name": "mini",
    "map": {
        "lanes": [
            {"id": "L0", "centerline": [[float(x), 0.0] for x in range(-20, 301, 20)], "speed_limit": 12.0, "successors": []},
        ],
        "drivable_area": [[[-20.0, -1.75], [300.0, -1.75], [300.0, 1.75], [-20.0, 1.75]]],
    },
    "ego": {
        "state": {"x": 0.0, "y": 0.0, "v": 10.0, "psi": 0.0},
        "footprint": {"length": 4.6, "width": 1.8},
        "goal": [250.0, 0.0],
    },
    "agents": [],
}

CONFIG = {
    "sampler": {"accel_grid": [-2.0, 0.0, 2.0], "yaw_rate_grid": [-0.1, 0.0, 0.1],
                "speed_grid": [], "lateral_offsets": [], "max_children": 2},
    "schedule": {"num_stages": 2, "stage_duration": 2.0, "dt": 0.1},
    "predictor": {"branching_factor": 2},
    "planner": "tpp",
    "sim": {"total_duration": 4.0, "sim_dt": 0.1, "replan_period": 2.0},
    "seed": 0,
}


@pytest.fixture
def paths(tmp_path):
    scen = tmp_path / "mini.json"
    scen.write_text(json.dumps(SCENARIO))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    return scen, cfg, tmp_path


class TestRun:
    def test_writes_trace_and_report(self, paths):
        scen, cfg, tmp = paths
        out = tmp / "trace.jsonl"
        code = main(["run", "--scenario", str(scen), "--config", str(cfg),
                     "--planner", "tpp", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()
        report = json.loads(Path(str(out) + ".report.json").read_text())
        assert report["planner"] == "tpp" and report["seed"] == 1
        assert set(report) >= {"crash_rate", "offroad_rate", "coverage"}
        lines = out.read_text().splitlines()
        assert len(lines) == 40
        json.loads(lines[0])

    def test_seed_defaults_to_the_config_seed(self, paths):
        scen, cfg, tmp = paths
        cfg.write_text(json.dumps({**CONFIG, "seed": 4}))
        out = tmp / "trace.jsonl"
        assert main(["run", "--scenario", str(scen), "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert json.loads(Path(str(out) + ".report.json").read_text())["seed"] == 4

    def test_byte_identical_reruns(self, paths):
        scen, cfg, tmp = paths
        out_a, out_b = tmp / "a.jsonl", tmp / "b.jsonl"
        for out in (out_a, out_b):
            assert main(["run", "--scenario", str(scen), "--config", str(cfg),
                         "--seed", "3", "--out", str(out)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        assert Path(str(out_a) + ".report.json").read_bytes() == Path(str(out_b) + ".report.json").read_bytes()

    def test_malformed_scenario_exits_2_no_outputs(self, paths):
        _, cfg, tmp = paths
        bad = tmp / "bad.json"
        bad.write_text("{not json")
        out = tmp / "never.jsonl"
        code = main(["run", "--scenario", str(bad), "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert not out.exists()
        assert not Path(str(out) + ".report.json").exists()


class TestEval:
    def test_row_counts_and_aggregates(self, paths):
        scen, cfg, tmp = paths
        out = tmp / "table.csv"
        code = main(["eval", "--scenario", str(scen), "--config", str(cfg),
                     "--planner", "tpp,ncr,ncg", "--episodes", "2", "--seed", "0",
                     "--out", str(out)])
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r for r in rows if r["scenario"] != "ALL"] and len(rows) == 9
        agg = [r for r in rows if r["scenario"] == "ALL"]
        assert sorted(r["planner"] for r in agg) == ["ncg", "ncr", "tpp"]
        assert list(rows[0]) == CSV_COLUMNS

    def test_aggregate_is_mean_of_episodes(self, paths):
        scen, cfg, tmp = paths
        out = tmp / "table.csv"
        main(["eval", "--scenario", str(scen), "--config", str(cfg),
              "--planner", "tpp", "--episodes", "3", "--seed", "0", "--out", str(out)])
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        eps = [r for r in rows if r["scenario"] != "ALL"]
        agg = [r for r in rows if r["scenario"] == "ALL"][0]
        mean = sum(float(r["crash_rate"]) for r in eps) / len(eps)
        assert float(agg["crash_rate"]) == pytest.approx(mean)

    def test_aggregation_order_independent(self):
        rows = [
            {"scenario": "s", "planner": "tpp", "seed": 0, "crash_rate": 0.0, "offroad_rate": 0.0, "coverage": 10},
            {"scenario": "s", "planner": "tpp", "seed": 1, "crash_rate": 0.2, "offroad_rate": 0.1, "coverage": 20},
            {"scenario": "s", "planner": "ncg", "seed": 0, "crash_rate": 0.5, "offroad_rate": 0.0, "coverage": 30},
        ]
        assert aggregate_rows(rows) == aggregate_rows(list(reversed(rows)))


class TestVerifyCommand:
    def test_small_suites_pass(self, capsys):
        code = main(["verify", "--suite", "dp-oracle", "--instances", "20"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "dp-oracle: PASS" in out

    def test_causal_consistency_suite(self, capsys):
        code = main(["verify", "--suite", "causal-consistency", "--instances", "20"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "causal-consistency: PASS" in out and "adversarial caught: True" in out

    def test_spline_suite(self, capsys):
        code = main(["verify", "--suite", "spline"])
        assert code == EXIT_OK
        assert "spline: PASS" in capsys.readouterr().out


class TestRoundTrip:
    def test_scenario_round_trip_canonical(self):
        spec = parse_scenario(SCENARIO)
        once = canonical_dumps(scenario_to_dict(spec))
        again = canonical_dumps(scenario_to_dict(parse_scenario(json.loads(once))))
        assert once == again

    def test_repo_scenario_parses(self):
        spec = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "cutin.json")
        assert spec.name == "cutin"
        assert spec.agents[0].behavior["kind"] == "cut_in"
