"""Command-line surface: run one episode, batch-evaluate planners, verify.

All outputs are canonical JSON / JSON Lines / CSV so repeated invocations are
byte-identical. Seeds are explicit everywhere; no wall-clock entropy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import (
    PlannerConfig,
    canonical_dumps,
    load_planner_config,
    load_scenario,
)
from .errors import ScenarioError, TooLarge, TreeplanError
from .metrics import crash_and_offroad_rates, kde_coverage
from .sim import run_closed_loop
from . import verify as verify_mod

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

CSV_COLUMNS = ["scenario", "planner", "seed", "crash_rate", "offroad_rate", "coverage"]


def _trace_lines(trace) -> str:
    return "".join(canonical_dumps(step) + "\n" for step in trace.steps)


def cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        cfg = load_planner_config(args.config)
    except ScenarioError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    planner = args.planner or cfg.planner
    seed = args.seed if args.seed is not None else cfg.sim.seed
    try:
        trace, report = run_episode(scenario, planner, cfg, seed)
    except ScenarioError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TreeplanError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(_trace_lines(trace))
    Path(str(out) + ".report.json").write_text(canonical_dumps(report) + "\n")
    return EXIT_OK


def run_episode(scenario, planner: str, cfg: PlannerConfig, seed: int):
    """One evaluation episode; returns its trace and its per-episode CSV row dict."""
    trace = run_closed_loop(scenario, planner, replace(cfg.sim, seed=seed), cfg)
    crash, offroad = crash_and_offroad_rates(trace)
    return trace, {
        "scenario": scenario.name,
        "planner": planner,
        "seed": seed,
        "crash_rate": crash,
        "offroad_rate": offroad,
        "coverage": kde_coverage(trace),
    }


def aggregate_rows(rows) -> list:
    """Per-planner means over episodes, appended after the per-episode rows."""
    planners = sorted({r["planner"] for r in rows})
    out = []
    for planner in planners:
        sub = [r for r in rows if r["planner"] == planner]
        out.append(
            {
                "scenario": "ALL",
                "planner": planner,
                "seed": "",
                "crash_rate": sum(r["crash_rate"] for r in sub) / len(sub),
                "offroad_rate": sum(r["offroad_rate"] for r in sub) / len(sub),
                "coverage": sum(r["coverage"] for r in sub) / len(sub),
            }
        )
    return out


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def cmd_eval(args) -> int:
    try:
        cfg = load_planner_config(args.config)
        scen_path = Path(args.scenario)
        files = sorted(scen_path.glob("*.json")) if scen_path.is_dir() else [scen_path]
        if not files:
            raise ScenarioError(f"no scenario files under {scen_path}")
        scenarios = [load_scenario(f) for f in files]
    except ScenarioError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    planners = [p.strip() for p in args.planner.split(",") if p.strip()]
    jobs = [
        (scenario, planner, args.seed + episode)
        for scenario in scenarios
        for planner in planners
        for episode in range(args.episodes)
    ]
    rows, errors = [], []
    # episodes are independent; results merge in deterministic job order
    for scenario, planner, seed in jobs:
        try:
            rows.append(run_episode(scenario, planner, cfg, seed)[1])
        except TreeplanError as exc:
            errors.append(f"{scenario.name}/{planner}/{seed}: {exc}")
    for err in errors:
        print(f"episode failed: {err}", file=sys.stderr)
    if not rows:
        return EXIT_RUNTIME
    rows = sorted(rows, key=lambda r: (r["scenario"], r["planner"], r["seed"]))
    all_rows = rows + aggregate_rows(rows)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(rows_to_csv(all_rows))
    Path(str(out) + ".json").write_text(canonical_dumps(all_rows) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    suites = ["dp-oracle", "causal-consistency", "spline"] if args.suite == "all" else [args.suite]
    ok = True
    for suite in suites:
        if suite == "dp-oracle":
            try:
                failures = verify_mod.run_dp_oracle_suite(args.instances)
                failures += verify_mod.run_ec_oracle_suite(args.instances)
            except TooLarge as exc:
                print(f"dp-oracle: SKIP ({exc})")
                continue
            passed = not failures
            print(f"dp-oracle: {'PASS' if passed else 'FAIL'} ({len(failures)} failures)")
            if failures:
                print(json.dumps(failures[0]), file=sys.stderr)
            ok &= passed
        elif suite == "causal-consistency":
            failures = verify_mod.run_consistency_suite(args.instances)
            adversarial_caught = verify_mod.run_adversarial_consistency_case()
            passed = not failures and adversarial_caught
            print(
                f"causal-consistency: {'PASS' if passed else 'FAIL'} "
                f"({len(failures)} failures, adversarial caught: {adversarial_caught})"
            )
            if failures:
                print(json.dumps(failures[0]), file=sys.stderr)
            ok &= passed
        elif suite == "spline":
            failure, worst = verify_mod.run_spline_suite()
            passed = failure is None
            print(f"spline: {'PASS' if passed else 'FAIL'} (max residual {worst:.3e})")
            ok &= passed
        else:
            print(f"unknown suite {suite!r}", file=sys.stderr)
            return EXIT_VALIDATION
    return EXIT_OK if ok else EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treeplan")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one closed-loop episode")
    run.add_argument("--scenario", required=True)
    run.add_argument("--config", required=True)
    run.add_argument("--planner", choices=["tpp", "ncr", "ncg"], default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", required=True, help="trace output path (JSON Lines)")
    run.set_defaults(func=cmd_run)

    ev = sub.add_parser("eval", help="batch evaluation across planners and seeds")
    ev.add_argument("--scenario", required=True, help="scenario file or directory")
    ev.add_argument("--config", required=True)
    ev.add_argument("--planner", default="tpp,ncr,ncg", help="comma-separated planner list")
    ev.add_argument("--episodes", type=int, default=1)
    ev.add_argument("--seed", type=int, default=0, help="base seed; episode e uses seed+e")
    ev.add_argument("--out", required=True, help="CSV output path")
    ev.set_defaults(func=cmd_eval)

    ver = sub.add_parser("verify", help="randomized verification suites")
    ver.add_argument("--suite", choices=["dp-oracle", "causal-consistency", "spline", "all"], default="all")
    ver.add_argument("--instances", type=int, default=200)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
