"""Alternating parent/change pairs of the benchmark, summarised per metric.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload dense-plan \
        --seeds 401 402 403 404 405 406 407 408 409 410 --seconds 20

PARENT_DIR and CHANGE_DIR are two checkouts of the repository. For each seed
the script runs ``bench/run.py --workload W --seed SEED --seconds S --trace 0``
once in each checkout, as its own process with the checkout as working
directory, the parent first in even pairs and the change first in odd ones,
so that a drift of the host's speed does not favour either side. It only
starts the benchmark; it imports nothing from ``bench/``.

For each end-to-end metric of CHANGE_DIR's ``BENCHMARK.json`` it prints the
median and quartiles of the parent's and the change's (scaled) values, the
relative change of the medians, and in how many pairs the change was better,
then each pair's values. Every run that is not ``correct`` or has failed
operations is flagged, and the exit status is 1 if there is one.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_result(stdout: str) -> dict:
    """The JSON result object on the last non-empty line of a run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return parse_result(proc.stdout)


def run_pairs(parent: Path, change: Path, workload: str, seeds, seconds: float, runner=run_once) -> list:
    """(seed, parent result, change result) per seed, each pair run in
    alternating order."""
    pairs = []
    for i, seed in enumerate(seeds):
        sides = {}
        order = (("parent", parent), ("change", change))
        for side, checkout in order if i % 2 == 0 else order[::-1]:
            sides[side] = runner(checkout, workload, seed, seconds)
        pairs.append((seed, sides["parent"], sides["change"]))
    return pairs


def load_metrics(checkout: Path) -> list:
    """(name, better) of every end-to-end metric the benchmark declares."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def quartiles(values) -> tuple:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def problems(result: dict) -> list:
    out = []
    if result.get("correct") is not True:
        out.append("not correct")
    if result.get("failed", 0):
        out.append(f"{result['failed']} failed operations")
    return out


def summarize(pairs, metrics) -> tuple:
    """Report lines and whether any run was flagged."""
    lines = [f"{len(pairs)} pairs; figures are median [lower quartile, upper quartile]"]
    for name, better in metrics:
        parent = [p["metrics"][name]["value"] for _, p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, _, c in pairs]
        won = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        rel = (cq[1] - pq[1]) / pq[1] * 100.0 if pq[1] else float("nan")
        lines.append(
            f"{name} ({better} is better): parent {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}] -> "
            f"change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] ({rel:+.1f} %), change better in {won}/{len(pairs)}"
        )
    for seed, p, c in pairs:
        values = (f"{n} {p['metrics'][n]['value']:.4g} -> {c['metrics'][n]['value']:.4g}" for n, _ in metrics)
        lines.append(f"seed {seed}: " + ", ".join(values))
    flagged = False
    for seed, p, c in pairs:
        for side, result in (("parent", p), ("change", c)):
            for what in problems(result):
                flagged = True
                lines.append(f"FLAG seed {seed} {side}: {what}")
    return lines, flagged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    pairs = run_pairs(args.parent.resolve(), args.change.resolve(), args.workload, args.seeds, args.seconds)
    lines, flagged = summarize(pairs, load_metrics(args.change))
    print(f"workload {args.workload}, seeds {' '.join(map(str, args.seeds))}, {args.seconds:g} s per run")
    print("\n".join(lines))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
