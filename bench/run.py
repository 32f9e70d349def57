"""treeplan benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload dense-plan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark imports the package from
``src/``, makes the workload's inputs from ``--seed``, runs whole rounds of
operations until their measured time reaches ``--seconds``, checks every
output with the independent checks in checks.py, and prints as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs the span
tracer (tracing.py), reports the per-layer metrics and writes the spans to
``bench/out/``. One process, one thread; numpy's thread pools are pinned to
one thread.

End-to-end times are scaled to a nominal host speed, because on a shared
virtual machine the speed one thread gets can change by 2x within minutes.
Before each operation, and once after set-up, the benchmark times a fixed
reference kernel that runs no treeplan code, and multiplies the measured wall
time by REFERENCE_S / (the kernel's time). The unscaled figures are printed on
standard error.
"""

from time import perf_counter

T_START = perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(1, str(ROOT / "src"))

REFERENCE_S = 4e-3  # nominal time of one reference_kernel() call


def reference_kernel() -> float:
    """Fixed work like the planner's: interpreter loops, math calls, small arrays."""
    acc = 0.0
    table = {}
    for i in range(10000):
        x = math.sin(i * 1e-3) + math.hypot(i, 3.0)
        table[i & 127] = (x, i)
        acc += x
    a = np.linspace(0.0, 1.0, 32)
    for _ in range(330):
        a = np.sqrt(a * a + 1.0) - 0.5
    return acc + float(a.sum())


def host_scale(repeats: int = 3) -> float:
    """REFERENCE_S over the fastest of several reference_kernel() timings."""
    best = math.inf
    for _ in range(repeats):
        t0 = perf_counter()
        reference_kernel()
        best = min(best, perf_counter() - t0)
    return REFERENCE_S / best


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("cutin-loop", "dense-plan", "deep-tree"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    import workloads

    work = workloads.make(args.workload, args.seed, ROOT)
    work.warm_up()
    setup_s = perf_counter() - T_START
    setup_scale = host_scale(repeats=5)

    attempted = 0
    op_errors, check_errors = [], []
    op_seconds, plan_ms = [], []  # wall times of the completed operations
    op_scales, plan_scales = [], []
    measured = 0.0
    r = 0
    while measured < args.seconds:
        for job, op in work.round(r):
            attempted += 1
            scale = host_scale()
            t0 = perf_counter()
            try:
                result = tracer.op_span(attempted, op, job) if tracer else op(job)
            except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                op_errors.append(f"operation {attempted} failed:\n{traceback.format_exc()}")
                continue
            finally:
                elapsed = perf_counter() - t0
                measured += elapsed
            op_seconds.append(elapsed)
            op_scales.append(scale)
            plans = work.take_plan_ms(elapsed)
            plan_ms += plans
            plan_scales += [scale] * len(plans)
            try:
                work.check(job, result, attempted)
            except Exception as exc:  # noqa: BLE001 - every check failure is reported
                check_errors.append(f"check failed on operation {attempted}: {exc!r}")
        r += 1
    if tracer:
        tracer.op_id = tracing.AFTER
    try:
        summary = work.finish()
    except Exception as exc:  # noqa: BLE001
        check_errors.append(f"check failed after the run: {exc!r}")
        summary = ""

    if tracer:
        metrics = tracing.layer_metrics(tracer, len(op_seconds))
        out = ROOT / "bench" / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": (setup_s * setup_scale, "s"),
            "ops_per_s": (1.0 / statistics.median(t * k for t, k in zip(op_seconds, op_scales)), "1/s"),
            "plan_ms_p50": (statistics.median(t * k for t, k in zip(plan_ms, plan_scales)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(
            f"unscaled: setup_s {setup_s:.4f} ops_per_s {1.0 / statistics.median(op_seconds):.4f} "
            f"plan_ms_p50 {statistics.median(plan_ms):.4f} host_scale {statistics.median(op_scales):.4f}",
            file=sys.stderr,
        )

    for p in (op_errors + check_errors)[:20]:
        print(p, file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} operations in {r} rounds, {summary}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not check_errors,
                "attempted": attempted,
                "failed": len(op_errors),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
