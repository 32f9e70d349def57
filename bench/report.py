"""Per-layer self-time shares and tracing overhead of one workload.

    python3 bench/report.py --workload dense-plan --seed 1 --seconds 20

Runs the benchmark twice with the same seed, untraced and traced, reads the
spans the traced run wrote to bench/out/, and prints each layer's self time
as a share of the traced operations' time, the per-layer counts, and the
tracing overhead. The overhead is estimated as spans per operation times the
cost of one span, timed here on a wrapped no-op, because the two runs' medians
also differ by the host's drift between them; both figures are printed.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(1, str(ROOT / "src"))

import tracing  # noqa: E402


def run(workload, seed, seconds, trace):
    """The run's result line, and its standard error."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def span_cost_us(n: int = 200_000) -> float:
    """Added time of one traced call with a counter, over a plain call."""
    tr = tracing.Tracer()
    tr.op_id = 0
    plain = lambda x: x  # noqa: E731
    traced = tr.wrap("x", plain, lambda t, out, args: t.count("x"))
    t0 = perf_counter()
    for i in range(n):
        plain(i)
    t1 = perf_counter()
    for i in range(n):
        traced(i)
    t2 = perf_counter()
    return ((t2 - t1) - (t1 - t0)) / n * 1e6


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args()
    _, plain_err = run(args.workload, args.seed, args.seconds, 0)
    traced, _ = run(args.workload, args.seed, args.seconds, 1)
    path = ROOT / "bench" / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
    rows = [json.loads(line) for line in open(path)][:-1]
    spans = [[s["name"], s["start"], s["end"], s["parent"], s["op"]] for s in rows]
    op_total = sum(t1 - t0 for name, t0, t1, _, op in spans if name == "op" and op >= 0)
    print(f"{args.workload} seed {args.seed}: self time per layer, share of traced operation time")
    for layer, t in tracing.layer_self(spans).most_common():
        print(f"  {'bench' if layer == 'op' else layer:12s} {100 * t / op_total:6.1f} %")
    print("per-layer metrics:")
    for name, m in traced["metrics"].items():
        print(f"  {name:26s} {m['value']:12.4f} {m['unit']}")
    # the traced per-layer times are unscaled, so compare with the unscaled figure
    untraced_ms = 1e3 / float(re.search(r"unscaled: .*ops_per_s ([0-9.]+)", plain_err).group(1))
    traced_ms = traced["metrics"]["trace.op_ms"]["value"]
    n_ops = sum(s[0] == "op" for s in spans)
    per_op = sum(s[4] >= 0 for s in spans) / n_ops
    cost = span_cost_us()
    print(f"tracing overhead: {per_op:.0f} spans per operation x {cost:.2f} us = {per_op * cost / 1e3:.2f} ms, "
          f"{100 * per_op * cost / 1e3 / untraced_ms:.2f} % of the untraced median operation ({untraced_ms:.1f} ms)")
    print(f"median operation of the two runs: {untraced_ms:.1f} ms untraced, {traced_ms:.1f} ms traced "
          f"({100 * (traced_ms / untraced_ms - 1):+.1f} %, includes the host's drift between the runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
