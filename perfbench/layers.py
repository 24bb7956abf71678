"""The program's layers as the benchmark sees them.

:data:`ENTRY_POINTS` lists the batch-level public functions the traced
run wraps, one span name each; scalar per-point functions are seen
through the program's own work counters instead.  :data:`PER_LAYER`
lists every per-layer metric the traced run prints, grouped by the
``repro`` package it measures, and :func:`layer_metrics` computes them
from span totals, counter deltas and the few values the workloads
measure directly.  A metric that does not apply to a workload reads 0.
"""

from __future__ import annotations

import importlib

#: (module, attribute path, span name) of every traced entry point.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.variability.importance", "find_failure_shift",
     "variability.find_failure_shift"),
    ("repro.variability.importance", "estimate_failure_probability",
     "variability.estimate_failure_probability"),
    ("repro.circuit.batch", "noise_margins_batch",
     "circuit.noise_margins_batch"),
    ("repro.circuit.batch", "solve_vtc_batch", "circuit.solve_vtc_batch"),
    ("repro.circuit.delay", "analytic_delay_batch",
     "circuit.analytic_delay_batch"),
    ("repro.circuit.mna_batch", "solve_dc_batch", "circuit.solve_dc_batch"),
    ("repro.circuit.mna_batch", "solve_transient_batch",
     "circuit.solve_transient_batch"),
    ("repro.device.batch", "ParameterStack.metrics",
     "device.ParameterStack.metrics"),
    ("repro.device.batch", "BatchDeviceMetrics.ids",
     "device.BatchDeviceMetrics.ids"),
    ("repro.scaling.batch", "solve_log_doping", "scaling.solve_log_doping"),
    ("repro.numerics.rootsolve", "bisect_masked", "numerics.bisect_masked"),
    ("repro.numerics.rootsolve", "bisect_illinois",
     "numerics.bisect_illinois"),
    ("repro.numerics.rootsolve", "newton_safeguarded",
     "numerics.newton_safeguarded"),
    ("repro.tcad.poisson1d", "solve_mos_poisson_batch",
     "tcad.solve_mos_poisson_batch"),
    ("repro.service.grid", "fill_shard", "service.fill_shard"),
    ("repro.service.surrogate", "fit_surrogate", "service.fit_surrogate"),
    ("repro.service.surrogate", "validate_surrogate",
     "service.validate_surrogate"),
    ("repro.service.surrogate", "Surrogate.query", "service.Surrogate.query"),
    ("repro.service.exact", "exact_point", "service.exact_point"),
    ("repro.service.server", "DesignSpaceService.handle", "service.handle"),
    ("repro.analysis.docgen", "render_docs", "analysis.render_docs"),
)

#: Span-name prefix of the per-experiment spans the ``report`` worker
#: opens itself; they frame the work and are not a library layer.
EXPERIMENT_SPAN_PREFIX = "experiments."

#: Experiments timed on their own; the rest are summed.
HEAVY_EXPERIMENTS: tuple[str, ...] = ("ext_yield", "ext_array",
                                      "ext_sensitivity")

_S, _COUNT, _RATIO, _MS, _US = "s", "count", "ratio", "ms", "us"

#: Every per-layer metric: (name, unit, better).
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    # experiments
    ("experiments.ext_yield_s", _S, "lower"),
    ("experiments.ext_array_s", _S, "lower"),
    ("experiments.ext_sensitivity_s", _S, "lower"),
    ("experiments.rest_s", _S, "lower"),
    # variability
    ("variability.find_failure_shift.self_s", _S, "lower"),
    ("variability.estimate_failure_probability.self_s", _S, "lower"),
    ("variability.shift_probes", _COUNT, "lower"),
    ("variability.estimator_trials", _COUNT, "lower"),
    # circuit, batched kernels
    ("circuit.noise_margins_batch.self_s", _S, "lower"),
    ("circuit.solve_vtc_batch.self_s", _S, "lower"),
    ("circuit.analytic_delay_batch.self_s", _S, "lower"),
    ("circuit.balance_bisection_sweeps", _COUNT, "lower"),
    # circuit, batched MNA
    ("circuit.solve_dc_batch.self_s", _S, "lower"),
    ("circuit.solve_transient_batch.self_s", _S, "lower"),
    ("circuit.mna.newton_sweeps", _COUNT, "lower"),
    ("circuit.mna.device_evals", _COUNT, "lower"),
    ("circuit.mna.lane_ratio", _RATIO, "lower"),
    # device
    ("device.ParameterStack.metrics.self_s", _S, "lower"),
    ("device.BatchDeviceMetrics.ids.self_s", _S, "lower"),
    ("scaling.device_eval_points", _COUNT, "lower"),
    ("cache.device.hit_ratio", _RATIO, "higher"),
    # scaling
    ("scaling.solve_log_doping.self_s", _S, "lower"),
    ("scaling.doping_batch_points", _COUNT, "lower"),
    ("scaling.doping_bisection_sweeps", _COUNT, "lower"),
    ("cache.bracket.hit_ratio", _RATIO, "higher"),
    # numerics
    ("numerics.bisect_masked.self_s", _S, "lower"),
    ("numerics.bisect_illinois.self_s", _S, "lower"),
    ("numerics.newton_safeguarded.self_s", _S, "lower"),
    ("numerics.lane_ratio", _RATIO, "lower"),
    # tcad
    ("tcad.solve_mos_poisson_batch.self_s", _S, "lower"),
    ("poisson.newton_iterations", _COUNT, "lower"),
    # service: grid and surrogate
    ("service.fill_shard.self_s", _S, "lower"),
    ("service.fit_surrogate.self_s", _S, "lower"),
    ("service.validate_surrogate.self_s", _S, "lower"),
    # service: dispatch
    ("service.handle.surrogate_p50_us", _US, "lower"),
    ("service.handle.exact_p50_ms", _MS, "lower"),
    ("service.Surrogate.query.self_s", _S, "lower"),
    ("service.exact_point.self_s", _S, "lower"),
    ("service.exact_fallback_ratio", _RATIO, "lower"),
    ("service.transport_overhead_ms", _MS, "lower"),
    # service: the HTTP tiers as a designer sees them
    ("service.http.surrogate_p50_ms", _MS, "lower"),
    ("service.http.surrogate_p99_ms", _MS, "lower"),
    ("service.http.exact_p50_ms", _MS, "lower"),
    ("service.http.exact_p90_ms", _MS, "lower"),
    # analysis
    ("analysis.render_docs.self_s", _S, "lower"),
    # load generator and tracer
    ("loadgen.late_p99_ms", _MS, "lower"),
    ("trace.overhead_frac", _RATIO, "lower"),
    ("trace.untraced_frac", _RATIO, "lower"),
)

#: Counters reported as they are.
_COUNTS = (
    "variability.shift_probes", "variability.estimator_trials",
    "circuit.balance_bisection_sweeps", "circuit.mna.newton_sweeps",
    "circuit.mna.device_evals", "scaling.device_eval_points",
    "scaling.doping_batch_points", "scaling.doping_bisection_sweeps",
    "poisson.newton_iterations",
)

#: Ratios of counters: metric -> (numerator, denominator terms).
_RATIOS = {
    "circuit.mna.lane_ratio": ("circuit.mna.active_lanes",
                               ("circuit.mna.total_lanes",)),
    "cache.device.hit_ratio": ("cache.device.hits",
                               ("cache.device.hits", "cache.device.misses")),
    "cache.bracket.hit_ratio": ("cache.bracket.hits",
                                ("cache.bracket.hits",
                                 "cache.bracket.misses")),
    "numerics.lane_ratio": ("numerics.active_lanes",
                            ("numerics.total_lanes",)),
    "service.exact_fallback_ratio": ("service.exact_fallbacks",
                                     ("service.queries",)),
}


def resolve_entry_points() -> list[tuple[object, str]]:
    """``(function, span name)`` for every entry point, imported."""
    resolved = []
    for module_name, path, span_name in ENTRY_POINTS:
        target = importlib.import_module(module_name)
        for part in path.split("."):
            target = getattr(target, part)
        resolved.append((target, span_name))
    return resolved


def layer_metrics(span_totals: dict, counters: dict,
                  experiment_s: dict | None = None,
                  measured: dict | None = None) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric, by name.

    ``span_totals`` comes from :func:`tracing.totals`, ``counters`` is
    a ``repro.perf`` delta, ``experiment_s`` maps experiment ids to
    their untraced wall seconds, and ``measured`` carries metrics the
    workload measured directly (latencies, trace overhead).
    """
    out = {name: 0.0 for name, _unit, _better in PER_LAYER}
    for name in out:
        if name.endswith(".self_s"):
            span = span_totals.get(name[:-len(".self_s")])
            if span is not None:
                out[name] = span["self_s"]
    for name in _COUNTS:
        out[name] = float(counters.get(name, 0))
    for name, (numerator, terms) in _RATIOS.items():
        denominator = sum(counters.get(t, 0) for t in terms)
        if denominator:
            out[name] = counters.get(numerator, 0) / denominator
    if experiment_s:
        for eid in HEAVY_EXPERIMENTS:
            out[f"experiments.{eid}_s"] = experiment_s.get(eid, 0.0)
        out["experiments.rest_s"] = sum(
            s for eid, s in experiment_s.items()
            if eid not in HEAVY_EXPERIMENTS)
    for name, value in (measured or {}).items():
        if name not in out:
            raise KeyError(f"unknown per-layer metric {name!r}")
        out[name] = value
    return out
