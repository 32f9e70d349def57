"""scripts/bench_pairs.py on canned benchmark result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [("plan_ms_p50", "lower"), ("ops_per_s", "higher")]


def _line(plan_ms, ops, correct=True, failed=0):
    return json.dumps({
        "correct": correct,
        "attempted": 40,
        "failed": failed,
        "metrics": {"plan_ms_p50": {"value": plan_ms, "unit": "ms"}, "ops_per_s": {"value": ops, "unit": "1/s"}},
    })


def _pairs(rows):
    """(seed, parent, change) from rows of (parent line, change line)."""
    return [(400 + i, bench_pairs.parse_result(p), bench_pairs.parse_result(c)) for i, (p, c) in enumerate(rows)]


def test_parse_result_reads_the_last_line():
    out = "some progress\n" + _line(10.0, 5.0) + "\n\n"
    assert bench_pairs.parse_result(out)["metrics"]["plan_ms_p50"]["value"] == 10.0
    with pytest.raises(ValueError):
        bench_pairs.parse_result("\n")


def test_medians_quartiles_and_pairs_won():
    rows = [(_line(p, 20.0), _line(c, o)) for p, c, o in
            [(50.0, 42.0, 21.0), (52.0, 43.0, 19.0), (49.0, 41.0, 22.0), (51.0, 51.0, 23.0), (53.0, 44.0, 24.0)]]
    lines, flagged = bench_pairs.summarize(_pairs(rows), METRICS)
    assert not flagged
    assert lines[0].startswith("5 pairs")
    # parent 49 50 51 52 53: median 51, quartiles 50 and 52; change 41 42 43 44 51
    assert lines[1] == (
        "plan_ms_p50 (lower is better): parent 51 [50, 52] -> change 43 [42, 44] (-15.7 %), change better in 4/5"
    )
    # a tie (51 -> 51) is not a win; higher is better for ops_per_s, and 19 < 20 loses
    assert lines[2].endswith("change better in 4/5")
    assert "parent 20 [20, 20] -> change 22 [21, 23]" in lines[2]
    assert lines[3] == "seed 400: plan_ms_p50 50 -> 42, ops_per_s 20 -> 21"
    assert len(lines) == 3 + len(rows)


def test_runs_that_are_not_correct_or_failed_are_flagged():
    rows = [(_line(50.0, 20.0), _line(40.0, 25.0, correct=False)), (_line(50.0, 20.0, failed=2), _line(40.0, 25.0))]
    lines, flagged = bench_pairs.summarize(_pairs(rows), METRICS)
    assert flagged
    assert "FLAG seed 400 change: not correct" in lines
    assert "FLAG seed 401 parent: 2 failed operations" in lines


def test_one_pair_has_degenerate_quartiles():
    lines, _ = bench_pairs.summarize(_pairs([(_line(50.0, 20.0), _line(40.0, 25.0))]), METRICS)
    assert "parent 50 [50, 50] -> change 40 [40, 40]" in lines[1]


def test_pairs_alternate_which_side_runs_first():
    calls = []

    def fake(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed))
        return json.loads(_line(50.0 if checkout.name == "p" else 40.0, 20.0))

    pairs = bench_pairs.run_pairs(Path("p"), Path("c"), "dense-plan", [7, 8, 9], 1.0, runner=fake)
    assert calls == [("p", 7), ("c", 7), ("c", 8), ("p", 8), ("p", 9), ("c", 9)]
    assert [(s, p["metrics"]["plan_ms_p50"]["value"], c["metrics"]["plan_ms_p50"]["value"]) for s, p, c in pairs] == [
        (7, 50.0, 40.0), (8, 50.0, 40.0), (9, 50.0, 40.0)
    ]


def test_metrics_come_from_the_benchmark_declaration():
    names = [name for name, _ in bench_pairs.load_metrics(_PATH.parents[1])]
    assert names == ["setup_s", "ops_per_s", "plan_ms_p50", "peak_rss_mb"]
