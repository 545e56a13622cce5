"""Spans around the public functions of each ns1d module, and their summary.

The wrappers are installed from outside the package: each function is
replaced in the namespace it is called from, because the modules import
their neighbours with `from .x import y`.  A span is a tuple

    (span id, parent span id, run id, name, start, end, info)

where `name` is `<layer>.<function>`, the layer being the module the
function is defined in, and `info` carries counts the function returns
(Newton iterations, rejected sub-steps, cells).  Spans stay in memory and
are written out once, when the traced process ends.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

LAYERS = ("constitutive", "grid", "solver", "diagnostics", "verification",
          "harness", "cli")


def _step_info(args, result):
    return {"cells": int(args[0].v.size), "rejected": int(result[1].rejected_substeps)}


def _newton_info(args, result):
    return {"iters": int(result[1])}


# (module whose namespace is patched, attribute, span name, info hook).
# A dotted attribute patches a method on a class of that module.
TARGETS = [
    ("ns1d.solver", "transport", "constitutive.transport", None),
    ("ns1d.diagnostics", "transport", "constitutive.transport", None),
    ("ns1d.solver", "transport_derivatives", "constitutive.transport_derivatives", None),
    ("ns1d.diagnostics", "kanel_potential", "constitutive.kanel_potential", None),
    ("ns1d.diagnostics", "adaptive_simpson", "constitutive.adaptive_simpson", None),
    ("ns1d.diagnostics", "phi", "constitutive.phi", None),
    ("ns1d.grid", "Grid.node_diff", "grid.node_diff", None),
    ("ns1d.grid", "Grid.cell_diff", "grid.cell_diff", None),
    ("ns1d.grid", "Grid.face_average", "grid.face_average", None),
    ("ns1d.grid", "Grid.cell_average_of_nodes", "grid.cell_average_of_nodes", None),
    ("ns1d.grid", "Grid.discrete_norm", "grid.discrete_norm", None),
    ("ns1d.solver", "apply_farfield", "grid.apply_farfield", None),
    ("ns1d.harness", "apply_farfield", "grid.apply_farfield", None),
    ("ns1d.verification", "apply_farfield", "grid.apply_farfield", None),
    ("ns1d.harness", "build_grid", "grid.build_grid", None),
    ("ns1d.verification", "build_grid", "grid.build_grid", None),
    ("ns1d.solver", "rhs", "solver.rhs", None),
    ("ns1d.solver", "stable_dt", "solver.stable_dt", None),
    ("ns1d.solver", "advective_dt", "solver.advective_dt", None),
    ("ns1d.solver", "step_explicit", "solver.step_explicit", _step_info),
    ("ns1d.solver", "step_imex", "solver.step_imex", _step_info),
    ("ns1d.solver", "backward_euler_velocity", "solver.backward_euler_velocity", _newton_info),
    ("ns1d.solver", "backward_euler_theta", "solver.backward_euler_theta", _newton_info),
    ("ns1d.solver", "solve_banded", "solver.solve_banded", None),
    ("ns1d.harness", "advance", "solver.advance", None),
    ("ns1d.verification", "advance", "solver.advance", None),
    ("ns1d.diagnostics", "dissipation_rate", "diagnostics.dissipation_rate", None),
    ("ns1d.diagnostics", "kanel_bound_pair", "diagnostics.kanel_bound_pair", None),
    ("ns1d.diagnostics", "conserved_totals", "diagnostics.conserved_totals", None),
    ("ns1d.diagnostics", "eta_total", "diagnostics.eta_total", None),
    ("ns1d.diagnostics", "KanelEvaluator.__init__", "diagnostics.KanelEvaluator", None),
    ("ns1d.diagnostics", "KanelEvaluator.__call__", "diagnostics.kanel_evaluate", None),
    ("ns1d.diagnostics", "DiagnosticsCollector.__init__", "diagnostics.DiagnosticsCollector", None),
    ("ns1d.diagnostics", "DiagnosticsCollector.on_step", "diagnostics.on_step", None),
    ("ns1d.diagnostics", "DiagnosticsCollector.observe", "diagnostics.observe", None),
    ("ns1d.diagnostics", "DiagnosticsCollector.make_record", "diagnostics.make_record", None),
    ("ns1d.harness", "initial_data_report", "diagnostics.initial_data_report", None),
    ("ns1d.harness", "theta_floor_fit", "diagnostics.theta_floor_fit", None),
    ("ns1d.harness", "decay_metrics", "diagnostics.decay_metrics", None),
    ("ns1d.verification", "mms_sources", "verification.mms_sources", None),
    ("ns1d.verification", "make_source_fn", "verification.make_source_fn", None),
    ("ns1d.verification", "exact_state", "verification.exact_state", None),
    ("ns1d.harness", "convergence_study", "verification.convergence_study", None),
    ("ns1d.harness", "default_case", "verification.default_case", None),
    ("ns1d.cli", "run", "harness.run", None),
    ("ns1d.cli", "apply_overrides", "harness.apply_overrides", None),
    ("ns1d.cli", "default_config", "harness.default_config", None),
    ("ns1d.cli", "load_config", "harness.load_config", None),
    ("ns1d.harness", "make_model", "harness.make_model", None),
    ("ns1d.harness", "make_initial_data", "harness.make_initial_data", None),
    ("ns1d.harness", "_write_profile", "harness.write_profile", None),
    ("ns1d.harness", "_write_timeseries", "harness.write_timeseries", None),
    ("ns1d.harness", "_json_dump", "harness.json_dump", None),
]


class Tracer:
    """Records nested spans of one single-threaded process."""

    def __init__(self):
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self._ids = itertools.count(1)
        self.run_id = 0

    def wrap(self, fn: Callable, name: str, info: Optional[Callable] = None) -> Callable:
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = info(args, result) if info is not None and result is not None else None
                spans.append((span_id, parent, self.run_id, name, start, end, extra))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Replace every target in TARGETS by its traced version."""
        for module_name, attr, name, info in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self.wrap(getattr(owner, leaf), name, info))


def self_times(spans: List[tuple]) -> Dict[int, float]:
    """Span id -> its duration minus the durations of its direct children."""
    child_time: Dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    return {sid: (end - start) - child_time[sid] for sid, _, _, _, start, end, _ in spans}


def layer_metrics(spans: List[tuple], time_scale: float = 1.0) -> Dict[str, float]:
    """Per-layer figures of one traced workload iteration.

    Counts and self times are for the whole iteration; `calls_per_step` and
    `iters_per_step` are per accepted solver step; `us_per_call` is the mean
    inclusive span time.  Every time is multiplied by `time_scale`.
    """
    selfs = {sid: t * time_scale for sid, t in self_times(spans).items()}
    calls: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    layer_self: Dict[str, float] = defaultdict(float)
    counted: Dict[str, int] = defaultdict(int)
    for sid, _, _, name, start, end, info in spans:
        calls[name] += 1
        total[name] += (end - start) * time_scale
        layer_self[name.split(".", 1)[0]] += selfs[sid]
        for key, value in (info or {}).items():
            counted[f"{name}.{key}"] += value

    def n(*names):
        return sum(calls[x] for x in names)

    def us(*names):
        c = n(*names)
        return 1e6 * sum(total[x] for x in names) / c if c else 0.0

    step = ("solver.step_explicit", "solver.step_imex")
    grid_ops = ("grid.node_diff", "grid.cell_diff", "grid.face_average",
                "grid.cell_average_of_nodes")
    steps = n(*step)
    rejected = sum(counted[f"{x}.rejected"] for x in step)
    cells = sum(counted[f"{x}.cells"] for x in step)

    def per_step(value):
        return value / steps if steps else 0.0

    metrics = {
        "constitutive.transport.calls_per_step": per_step(n("constitutive.transport")),
        "constitutive.transport.us_per_call": us("constitutive.transport"),
        "constitutive.transport_derivatives.calls_per_step":
            per_step(n("constitutive.transport_derivatives")),
        "constitutive.kanel_potential.calls": n("constitutive.kanel_potential"),
        "grid.ops.calls_per_step": per_step(n(*grid_ops)),
        "grid.ops.us_per_call": us(*grid_ops),
        "solver.steps": steps,
        "solver.rejected_substeps": rejected,
        "solver.accept_ratio": steps / (steps + rejected) if steps else 0.0,
        "solver.step.us_per_call": us(*step),
        "solver.step.ns_per_cell": 1e9 * sum(total[x] for x in step) / cells if cells else 0.0,
        "solver.rhs.calls_per_step": per_step(n("solver.rhs")),
        "solver.rhs.us_per_call": us("solver.rhs"),
        "solver.dt.us_per_call": us("solver.stable_dt", "solver.advective_dt"),
        "solver.newton_theta.iters_per_step":
            per_step(counted["solver.backward_euler_theta.iters"]),
        "solver.newton_velocity.iters_per_step":
            per_step(counted["solver.backward_euler_velocity.iters"]),
        "solver.tridiag.solves_per_step": per_step(n("solver.solve_banded")),
        "diagnostics.dissipation_rate.calls_per_step":
            per_step(n("diagnostics.dissipation_rate")),
        "diagnostics.dissipation_rate.us_per_call": us("diagnostics.dissipation_rate"),
        "diagnostics.make_record.calls": n("diagnostics.make_record"),
        "diagnostics.make_record.us_per_call": us("diagnostics.make_record"),
        "diagnostics.kanel_bound_pair.us_per_call": us("diagnostics.kanel_bound_pair"),
        "diagnostics.kanel_evaluator_init_s": us("diagnostics.KanelEvaluator") / 1e6,
        "verification.mms_sources.calls_per_step": per_step(n("verification.mms_sources")),
        "verification.mms_sources.us_per_call": us("verification.mms_sources"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics


def root_steps(spans: List[tuple]) -> Dict[int, int]:
    """Run id -> number of accepted solver steps in that run."""
    out: Dict[int, int] = defaultdict(int)
    for _, _, run_id, name, _, _, _ in spans:
        if name in ("solver.step_explicit", "solver.step_imex"):
            out[run_id] += 1
    return out
