"""Span tracer for the traced benchmark run (``--trace 1``).

The package is not edited. Instead, :func:`instrument` replaces, on the
package's module objects, the public functions that one treeplan module calls
in another (and the functions the benchmark itself calls) with wrappers that
record a span and, where useful, a count. Modules look those names up in their
own globals at call time, so a call from ``treeplan.sim`` into ``grow_tree``
goes through the wrapper installed on ``treeplan.sim``.

A span is ``[name, start, end, parent index, operation id]``; the layer of a
span is the part of its name before the first dot. Spans stay in memory and
are written out once, when the run ends. A span's self time is its duration
minus the durations of its direct children; a layer's self time is the sum of
the self times of its spans, so a layer's figure excludes the time spent in
other layers it calls.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter
from time import perf_counter

import treeplan.baselines
import treeplan.config
import treeplan.costs
import treeplan.dp
import treeplan.metrics
import treeplan.prediction
import treeplan.sampler
import treeplan.sim

SETUP = -1  # operation id of spans recorded before the timed loop
AFTER = -2  # ... and after it (the rerun checks)


class Tracer:
    """In-memory spans and per-layer counts for one benchmark process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op_id = SETUP
        self._stack = []
        self._rng_keys = set()

    def count(self, key: str, value: float = 1.0):
        if self.op_id >= 0:
            self.counts[key] += value

    def wrap(self, name: str, fn, on_result=None):
        """fn wrapped so each call records a span (and counts via on_result)."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if on_result is not None:
                on_result(self, out, args)
            return out

        return traced

    def op_span(self, op_id: int, fn, *args):
        """Run one timed benchmark operation under a root span named ``op``."""
        self.op_id = op_id
        return self.wrap("op", fn)(*args)

    def write(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent, "op": op}))
                fh.write("\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def layer_self(spans: list) -> Counter:
    """Self time in seconds per layer, over the timed operations' spans."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = Counter()
    for (name, t0, t1, _, op), c in zip(spans, child):
        if op >= 0:
            out[name.split(".", 1)[0]] += t1 - t0 - c
    return out


# ---------------------------------------------------------------------------
# counts recorded at layer boundaries


def _tree_nodes(tr, tree, args):
    tr.count("sampler.nodes", len(tree.nodes))
    tr.count("sampler.kept", len(tree.nodes) - 1)


def _sim_replan(tr, tree, args):
    _tree_nodes(tr, tree, args)
    tr.count("sim.replans")


def _candidates(tr, terminals, args):
    tr.count("sampler.candidates", len(terminals))


def _feasible(tr, ok, args):
    tr.count("sampler.feasible", bool(ok))


def _predict_stage(tr, hypotheses, args):
    # distinct within one predict_ensemble call: the span now on top of the stack
    tr.count("prediction.stage_calls")
    key = (tr._stack[-1] if tr._stack else -1, args[4])
    if key not in tr._rng_keys:
        tr._rng_keys.add(key)
        tr.count("prediction.distinct_keys")


def _cost_entries(tr, tensor, args):
    tr.count("costs.entries", len(tensor.values))


def _dp_pairs(tr, result, args):
    tr.count("dp.pairs", len(result[0].V))


def _sim_trace(tr, trace, args):
    tr.count("sim.planner_errors", sum("planner_error" in s["events"] for s in trace.steps))


def _collision_check(tr, hit, args):
    tr.count("world.collision_checks")


def instrument(tracer: Tracer):
    """Install span wrappers on the package's cross-module entry points."""
    tp = treeplan
    patches = [
        (tp.sim, "run_closed_loop", "sim.run_closed_loop", _sim_trace),
        (tp.sim, "grow_tree", "sampler.grow_tree", _sim_replan),
        (tp.sampler, "grow_tree", "sampler.grow_tree", _tree_nodes),
        (tp.sampler, "sample_terminals", "sampler.sample_terminals", _candidates),
        (tp.sampler, "segment_feasible", "sampler.segment_feasible", _feasible),
        (tp.sim, "predict_ensemble", "prediction.predict_ensemble", None),
        (tp.prediction, "predict_ensemble", "prediction.predict_ensemble", None),
        (tp.prediction, "validate_causal_consistency", "prediction.validate", None),
        (tp.prediction.KinematicPredictor, "predict_stage", "prediction.predict_stage", _predict_stage),
        (tp.sim, "build_cost_tensor_ec", "costs.build_cost_tensor_ec", _cost_entries),
        (tp.costs, "build_cost_tensor_ec", "costs.build_cost_tensor_ec", _cost_entries),
        (tp.sim, "solve_policy_ec", "dp.solve_policy_ec", _dp_pairs),
        (tp.dp, "solve_policy_ec", "dp.solve_policy_ec", _dp_pairs),
        (tp.sim, "plan_ncr", "baselines.plan_ncr", None),
        (tp.baselines, "plan_ncr", "baselines.plan_ncr", None),
        (tp.sim, "plan_ncg", "baselines.plan_ncg", None),
        (tp.baselines, "plan_ncg", "baselines.plan_ncg", None),
        (tp.sim, "check_collision", "world.check_collision", _collision_check),
        (tp.sim, "is_offroad", "world.is_offroad", None),
        (tp.metrics, "crash_and_offroad_rates", "metrics.crash_and_offroad_rates", None),
        (tp.metrics, "kde_coverage", "metrics.kde_coverage", None),
        (tp.config, "load_scenario", "config.load_scenario", None),
        (tp.config, "load_planner_config", "config.load_planner_config", None),
        (tp.config, "parse_scenario", "config.parse_scenario", None),
        (tp.config, "parse_planner_config", "config.parse_planner_config", None),
    ]
    for owner, attr, name, on_result in patches:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), on_result))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer metrics: times and counts per timed operation, ratios, setup."""
    layer = layer_self(tracer.spans)
    by_name = Counter()
    calls = Counter()
    op_ms = []
    config_setup = 0.0
    for name, t0, t1, parent, op in tracer.spans:
        if op == SETUP and name.startswith("config.") and parent < 0:
            config_setup += t1 - t0
        if op < 0:
            continue
        if name == "op":
            op_ms.append((t1 - t0) * 1e3)
        by_name[name] += t1 - t0
        calls[name] += 1
    c = tracer.counts
    per_op = lambda v: _ratio(v, n_ops)  # noqa: E731
    ms = 1e3
    return {
        "sampler.self_ms": (per_op(layer["sampler"]) * ms, "ms"),
        "sampler.nodes": (per_op(c["sampler.nodes"]), "count"),
        "sampler.feasible_ratio": (_ratio(c["sampler.feasible"], c["sampler.candidates"]), "ratio"),
        "sampler.kept_ratio": (_ratio(c["sampler.kept"], c["sampler.candidates"]), "ratio"),
        "prediction.self_ms": (per_op(layer["prediction"]) * ms, "ms"),
        "prediction.stage_calls": (per_op(c["prediction.stage_calls"]), "count"),
        "prediction.distinct_ratio": (
            _ratio(c["prediction.distinct_keys"], c["prediction.stage_calls"]),
            "ratio",
        ),
        "prediction.validate_ms": (per_op(by_name["prediction.validate"]) * ms, "ms"),
        "costs.self_ms": (per_op(layer["costs"]) * ms, "ms"),
        "costs.entries": (per_op(c["costs.entries"]), "count"),
        "costs.us_per_entry": (_ratio(layer["costs"] * 1e6, c["costs.entries"]), "us"),
        "dp.self_ms": (per_op(layer["dp"]) * ms, "ms"),
        "dp.pairs": (per_op(c["dp.pairs"]), "count"),
        "baselines.ncr_ms": (per_op(by_name["baselines.plan_ncr"]) * ms, "ms"),
        "baselines.ncg_ms": (per_op(by_name["baselines.plan_ncg"]) * ms, "ms"),
        "sim.self_ms": (per_op(layer["sim"]) * ms, "ms"),
        "sim.replans": (per_op(c["sim.replans"]), "count"),
        "sim.planner_errors": (per_op(c["sim.planner_errors"]), "count"),
        "world.collision_checks": (per_op(c["world.collision_checks"]), "count"),
        "world.collision_us": (
            _ratio(by_name["world.check_collision"] * 1e6, calls["world.check_collision"]),
            "us",
        ),
        "world.offroad_us": (_ratio(by_name["world.is_offroad"] * 1e6, calls["world.is_offroad"]), "us"),
        "metrics.ms": (per_op(layer["metrics"]) * ms, "ms"),
        "config.load_ms": (config_setup * ms, "ms"),
        "trace.op_ms": (statistics.median(op_ms) if op_ms else 0.0, "ms"),
    }
