"""One workload job in a fresh process.

Started by ``run.py`` (never by hand) with the source tree on
``PYTHONPATH``; prints one JSON object as its last stdout line.
``ready_mono`` in it is ``time.monotonic()`` when the program's
package finished importing, which the parent subtracts from its own
clock reading at spawn to get set-up time (both are CLOCK_MONOTONIC
on Linux).

Modes::

    worker.py probe  MODULE...           import, report readiness
    worker.py report --seed N --rep R [--trace 0|1] [--spans PATH]
    worker.py grid   --seed N --rep R [--trace 0|1] [--spans PATH]
    worker.py gridfill                   fill the quick serving grid once
    worker.py replay [--trace 0|1]       answer stdin requests in-process
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import pathlib
import resource
import sys
import time

import inputs
import layers
import tracing

REPORT_MODULES = ("repro", "repro.experiments", "repro.analysis.manifest",
                  "repro.analysis.docgen")
GRID_MODULES = ("repro", "repro.service")

#: Relative tolerance of the grid cross-check against the exact tier.
GRID_MATCH_REL = 1e-9

#: Cells of each filled window re-solved by the exact tier.
GRID_SAMPLE_CELLS = 6

#: Validation points per node, ``repro grid build``'s default.
VALIDATE_POINTS = 32


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True), flush=True)


def _import(modules) -> float:
    for name in modules:
        importlib.import_module(name)
    return time.monotonic()


class _Trace:
    """Optional tracing of the layers for the duration of a job."""

    def __init__(self, enabled: bool) -> None:
        self.tracer = tracing.Tracer() if enabled else None

    def patched(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return tracing.patched(self.tracer, layers.resolve_entry_points(),
                               "repro")

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def summary(self, start: float, end: float) -> dict:
        """Span totals plus the share of ``[start, end]`` in no layer."""
        if self.tracer is None:
            return {}
        spans = self.tracer.spans
        wall = end - start
        in_layers = tracing.covered(
            spans, start, end,
            exclude=lambda n: n.startswith(layers.EXPERIMENT_SPAN_PREFIX))
        return {"span_totals": tracing.totals(spans),
                "untraced_frac": (wall - in_layers) / wall if wall else 0.0}

    def write(self, path: str | None, meta: dict) -> None:
        if self.tracer is not None and path:
            pathlib.Path(path).write_text(json.dumps(
                {"meta": meta, "spans": self.tracer.dump()}))


def _committed_claims(root: pathlib.Path) -> dict | None:
    path = root / "results.json"
    if not path.exists():
        return None
    experiments = json.loads(path.read_text())["experiments"]
    return {eid: [c["measured_value"] for c in entry["comparisons"]]
            for eid, entry in experiments.items()}


def _close(a: float, b: float, rel: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def run_report(args) -> dict:
    """Every experiment through ``RunManifest.record``, docs in memory."""
    ready = _import(REPORT_MODULES)
    from repro import perf
    from repro.analysis import docgen
    from repro.analysis.manifest import RunManifest
    from repro.experiments import experiment_ids

    order = inputs.experiment_order(experiment_ids(), args.seed, args.rep)
    trace = _Trace(args.trace)
    experiment_s: dict[str, float] = {}
    before = perf.snapshot()
    with trace.patched():
        cpu0 = time.process_time()
        start = time.perf_counter()
        manifest = RunManifest()
        for eid in order:
            t0 = time.perf_counter()
            with trace.span(layers.EXPERIMENT_SPAN_PREFIX + eid):
                manifest.record(eid)
            experiment_s[eid] = time.perf_counter() - t0
        docs = docgen.render_docs(manifest.pairs)
        end = time.perf_counter()
        cpu_s = time.process_time() - cpu0
    counters = perf.delta(before)

    committed = _committed_claims(pathlib.Path.cwd())
    failures = []
    claims = 0
    for result, record in manifest.pairs:
        expected = None if committed is None else committed.get(
            record.experiment_id)
        for i, comparison in enumerate(result.comparisons):
            claims += 1
            if not comparison.holds:
                failures.append(f"{record.experiment_id}: claim does not "
                                f"hold: {comparison.claim}")
            elif expected is not None and not (
                    i < len(expected) and _close(
                        comparison.measured_value, expected[i], 1e-9)):
                failures.append(f"{record.experiment_id}: measured value "
                                f"differs from results.json: "
                                f"{comparison.claim}")
    if len(docs) != 3 or not all(docs.values()):
        failures.append("render_docs returned an empty document")
    trace.write(args.spans, {"workload": "report", "seed": args.seed,
                             "order": order})
    return {"ready_mono": ready, "wall_s": end - start, "cpu_s": cpu_s,
            "peak_rss_mb": _peak_rss_mb(), "experiment_s": experiment_s,
            "attempted": claims, "failures": failures,
            "counters": counters, **trace.summary(start, end)}


def _grid_cell_failures(grid, seed: int, rep: int) -> list[str]:
    """Seeded cells of ``grid`` re-solved through the exact tier."""
    from repro.errors import OptimizationError
    from repro.scaling.roadmap import node_by_name
    from repro.service.contract import DESIGN_METRICS, VDD_METRICS
    from repro.service.exact import exact_point

    spec = grid.spec
    failures = []
    for n, li, ti, vi in inputs.grid_sample_cells(
            spec.shape, seed, rep, GRID_SAMPLE_CELLS):
        node = node_by_name(spec.nodes[n])
        try:
            exact = exact_point(node, spec.l_ratios[li] * node.l_poly_nm,
                                10.0 ** spec.log10_ioff[ti], spec.vdd_v[vi])
        except OptimizationError:
            exact = {m: math.nan for m in VDD_METRICS + DESIGN_METRICS}
        for metric in VDD_METRICS + DESIGN_METRICS:
            index = (n, li, ti, vi) if metric in VDD_METRICS else (n, li, ti)
            cell = float(grid.tensors[metric][index])
            if not _close(cell, exact[metric], GRID_MATCH_REL):
                failures.append(f"cell {index} {metric}: grid {cell!r} "
                                f"vs exact {exact[metric]!r}")
    return failures


def run_grid(args) -> dict:
    """``repro grid build`` on a seeded window: fill, fit, validate."""
    ready = _import(GRID_MODULES)
    from repro import perf, service
    from repro.service import GridSpec

    window = inputs.grid_window(GridSpec.default().to_meta(), args.seed,
                                args.rep)
    spec = GridSpec.from_meta(window)
    trace = _Trace(args.trace)
    before = perf.snapshot()
    with trace.patched():
        cpu0 = time.process_time()
        start = time.perf_counter()
        # Called through the package so the traced run's wrappers apply.
        grid = service.build_grid(spec, jobs=1)
        service.validate_surrogate(
            service.fit_surrogate(grid), max_points_per_node=VALIDATE_POINTS)
        end = time.perf_counter()
        cpu_s = time.process_time() - cpu0
    counters = perf.delta(before)
    shards = spec.shape[0] * spec.shape[1]
    failures = _grid_cell_failures(grid, args.seed, args.rep)
    if counters.get("service.grid.shards", 0) != shards:
        failures.append(f"filled {counters.get('service.grid.shards', 0)} "
                        f"of {shards} shards")
    trace.write(args.spans, {"workload": "grid", "seed": args.seed,
                             "window": window})
    return {"ready_mono": ready, "wall_s": end - start, "cpu_s": cpu_s,
            "peak_rss_mb": _peak_rss_mb(), "points": math.prod(spec.shape),
            "attempted": GRID_SAMPLE_CELLS + shards, "failures": failures,
            "window": window,
            "counters": counters, **trace.summary(start, end)}


def run_gridfill(_args) -> dict:
    """Load the quick serving grid, filling and storing it on a miss."""
    from repro.cache import grid_path
    from repro.service import (GridSpec, build_grid, fit_surrogate,
                               load_grid, store_grid, validate_surrogate)

    spec = GridSpec.quick()
    if load_grid(spec) is None:
        grid = build_grid(spec, jobs=min(2, os.cpu_count() or 1))
        validate_surrogate(fit_surrogate(grid),
                           max_points_per_node=VALIDATE_POINTS)
        store_grid(grid)
    return {"path": str(grid_path(spec.grid_id())), "hull": spec.to_meta()}


def run_replay(args) -> dict:
    """Answer stdin's requests through ``DesignSpaceService.handle``.

    Loads and fits the quick grid from the disk cache first, as
    ``repro serve --quick`` does.  Responses come back after a JSON
    round trip, each with its in-process latency and answering tier.
    """
    requests = json.load(sys.stdin)["requests"]
    ready = _import(GRID_MODULES)
    from repro import perf, service
    from repro.service import GridSpec

    trace = _Trace(args.trace)
    before = perf.snapshot()
    answers = []
    with trace.patched():
        start = time.perf_counter()
        grid = service.load_grid(GridSpec.quick())
        server = service.DesignSpaceService(
            None if grid is None else service.fit_surrogate(grid))
        for request in requests:
            t0 = time.perf_counter()
            response = server.handle(request)
            answers.append((time.perf_counter() - t0, response))
        end = time.perf_counter()
    counters = perf.delta(before)
    return {"ready_mono": ready, "wall_s": end - start,
            "latency_s": [dt for dt, _r in answers],
            "responses": [json.loads(json.dumps(r, sort_keys=True))
                          for _dt, r in answers],
            "counters": counters, **trace.summary(start, end)}


def run_probe(args) -> dict:
    return {"ready_mono": _import(args.modules)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    probe = sub.add_parser("probe")
    probe.add_argument("modules", nargs="+")
    for mode in ("report", "grid"):
        job = sub.add_parser(mode)
        job.add_argument("--seed", type=int, required=True)
        job.add_argument("--rep", type=int, default=0)
        job.add_argument("--trace", type=int, choices=(0, 1), default=0)
        job.add_argument("--spans", default=None)
    sub.add_parser("gridfill")
    replay = sub.add_parser("replay")
    replay.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    runner = {"probe": run_probe, "report": run_report, "grid": run_grid,
              "gridfill": run_gridfill, "replay": run_replay}[args.mode]
    _emit(runner(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
