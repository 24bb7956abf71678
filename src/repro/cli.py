"""Command-line interface: run reproduced experiments.

Usage::

    repro list                 # show all experiments
    repro run fig4             # run one experiment, print its report
    repro run all              # run everything (slow but complete)
    repro run all --jobs 4     # ... fanned out over 4 worker processes
    repro run table2 --profile # ... printing solver/cache perf counters
    repro report               # regenerate EXPERIMENTS.md, docs/RESULTS.md,
                               # results.json from live runs
    repro report --check       # exit 2 if the committed docs are stale
    repro lint                 # check the repo's coding invariants
    repro lint --format json   # ... machine-readable findings
    repro grid build --quick   # precompute design-space grid tensors
    repro serve                # answer design queries (stdio-JSON)
    repro serve --transport http --port 8337
    repro yield --vdd 0.2 0.25 0.3    # 6-sigma cell failure rates
    repro yield --mode snm --vdd 0.12 --strategy super-vth
    repro array --rows 2 4 8 16       # column leakage/SNM vs height
    repro array --study write --strategy super-vth --profile
    python -m repro run table2 # module form

Exit codes: 0 success; 1 a reproduced claim failed to hold (or, for
``lint``, active findings); 2 usage errors (unknown experiment id, bad
flags) or stale generated docs in ``report --check`` mode.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import perf
from .experiments import list_experiments, run_experiment


def _run_one(experiment_id: str):
    """Run one experiment, timing it."""
    start = time.perf_counter()
    result = run_experiment(experiment_id)
    elapsed = time.perf_counter() - start
    return result, elapsed


def _run_one_worker(experiment_id: str):
    """Worker body for the parallel runner.

    Module-level so it pickles into :class:`ProcessPoolExecutor`
    workers; experiments are pure functions of the registry id.  The
    counters are reset first because a forked worker inherits the
    parent's totals, which would double-count once merged back.
    """
    perf.reset()
    result, elapsed = _run_one(experiment_id)
    return result, elapsed, perf.snapshot()


def _print_result(result, elapsed: float, plot: bool) -> bool:
    print(result.render())
    if plot and result.series:
        from .analysis.plotting import render_ascii_chart
        # Chart series that share a y-label together.
        by_axis: dict[str, list] = {}
        for s in result.series:
            by_axis.setdefault(s.y_label, []).append(s)
        for y_label, group in by_axis.items():
            print(f"\n[{y_label}]")
            print(render_ascii_chart(group))
    print(f"-- completed in {elapsed:.1f}s --\n")
    return result.all_hold()


def _cmd_list() -> int:
    for experiment_id, title in list_experiments():
        print(f"{experiment_id:20s} {title}")
    return 0


def _cmd_run(targets: list[str], plot: bool = False, jobs: int = 1,
             profile: bool = False) -> int:
    known = [eid for eid, _t in list_experiments()]
    if "all" in targets:
        ids = known
    else:
        unknown = [t for t in targets if t not in known]
        if unknown:
            print(f"error: unknown experiment "
                  f"{', '.join(repr(t) for t in unknown)}; "
                  f"known ids: {', '.join(known)} (or 'all')",
                  file=sys.stderr)
            return 2
        ids = list(dict.fromkeys(targets))
    if jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2

    failures = 0
    if jobs == 1 or len(ids) == 1:
        for experiment_id in ids:
            result, elapsed = _run_one(experiment_id)
            if not _print_result(result, elapsed, plot):
                failures += 1
    else:
        from concurrent.futures import ProcessPoolExecutor
        workers = min(jobs, len(ids))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map() preserves submission order, so the report stream is
            # deterministic regardless of completion order.
            for result, elapsed, counts in pool.map(_run_one_worker, ids):
                perf.merge(counts)
                if not _print_result(result, elapsed, plot):
                    failures += 1

    if profile:
        print(perf.report())
    if failures:
        print(f"{failures} experiment(s) had claims that did not hold")
    return 1 if failures else 0


def _resolve_ids(targets: list[str] | None) -> list[str] | int:
    """Expand/validate experiment ids; returns an exit code on error."""
    known = [eid for eid, _t in list_experiments()]
    if not targets:
        return known
    unknown = [t for t in targets if t not in known]
    if unknown:
        print(f"error: unknown experiment "
              f"{', '.join(repr(t) for t in unknown)}; "
              f"known ids: {', '.join(known)}",
              file=sys.stderr)
        return 2
    return list(dict.fromkeys(targets))


def _results_json_problems(path, manifest, ids: list[str]) -> list[str]:
    """Structural staleness checks for the committed results.json.

    Byte comparison would be meaningless (wall times and git SHA vary
    run to run), so the check is semantic: the file must exist, parse,
    carry the current model schema hash, and record perf counters and
    wall time for every id that was just run.
    """
    import json
    if not path.exists():
        return [f"{path.name}: missing"]
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        return [f"{path.name}: unparseable ({err})"]
    problems = []
    if payload.get("schema_hash") != manifest.schema_hash:
        problems.append(
            f"{path.name}: schema hash {payload.get('schema_hash')!r} != "
            f"current {manifest.schema_hash!r} (model sources changed)")
    entries = payload.get("experiments", {})
    for eid in ids:
        entry = entries.get(eid)
        if entry is None:
            problems.append(f"{path.name}: no entry for {eid!r}")
        elif ("perf_counters" not in entry
              or "wall_time_s" not in entry):
            problems.append(f"{path.name}: incomplete entry for {eid!r}")
    return problems


def _cmd_report(root: str, check: bool = False, jobs: int = 1,
                only: list[str] | None = None,
                manifest_path: str | None = None) -> int:
    """Regenerate (or drift-check) the provenance-tracked results docs."""
    import pathlib

    from .analysis import docgen
    from .analysis.manifest import RunManifest

    ids = _resolve_ids(only)
    if isinstance(ids, int):
        return ids
    if jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2

    manifest = RunManifest()
    if jobs == 1 or len(ids) == 1:
        for experiment_id in ids:
            manifest.record(experiment_id)
    else:
        from concurrent.futures import ProcessPoolExecutor
        workers = min(jobs, len(ids))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for result, elapsed, counts in pool.map(_run_one_worker, ids):
                perf.merge(counts)
                manifest.add(result, wall_time_s=elapsed,
                             perf_counters=counts)

    docs = docgen.render_docs(manifest.pairs)
    root_path = pathlib.Path(root)
    claims = sum(record.claims_total for record in manifest.records)
    held = sum(record.claims_held for record in manifest.records)

    if check:
        stale = [rel for rel, text in docs.items()
                 if not (root_path / rel).exists()
                 or (root_path / rel).read_text() != text]
        problems = [f"stale: {rel}" for rel in stale]
        problems += _results_json_problems(
            root_path / docgen.RESULTS_JSON, manifest, ids)
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            print("generated docs have drifted from the code; run "
                  "'python -m repro report' and commit the result",
                  file=sys.stderr)
            return 2
        print(f"docs up to date: {len(ids)} experiments, "
              f"{held}/{claims} claims hold")
        return 0

    for rel, text in docs.items():
        target = root_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
        print(f"wrote {target}")
    manifest.save_results_json(root_path / docgen.RESULTS_JSON)
    print(f"wrote {root_path / docgen.RESULTS_JSON}")
    trace = (pathlib.Path(manifest_path) if manifest_path
             else root_path / ".repro" / "manifest.jsonl")
    manifest.write_jsonl(trace)
    print(f"appended {len(manifest)} run records to {trace}")
    print(f"{held}/{claims} claims hold")
    return 0


def _family(strategy: str):
    from .experiments.families import sub_vth_family, super_vth_family
    if strategy == "super-vth":
        return super_vth_family()
    if strategy == "sub-vth":
        return sub_vth_family()
    raise SystemExit(f"unknown strategy {strategy!r} "
                     "(choose super-vth or sub-vth)")


def _cmd_cards(strategy: str) -> int:
    from .scaling.compact_card import family_card_table
    print(family_card_table(_family(strategy)))
    return 0


def _cmd_save_family(strategy: str, path: str) -> int:
    from .io import family_to_dict, save_json
    family = _family(strategy)
    save_json(family_to_dict(family), path)
    print(f"wrote {strategy} family ({len(family.designs)} nodes) to {path}")
    return 0


def _cmd_yield(strategy: str, node: str, vdds: list[float], mode: str,
               method: str, trials: int, seed: int, slowdown: float,
               snm_min_mv: float, target_rel_err: float | None,
               r_max_sigma: float, profile: bool) -> int:
    """Estimate rare-event cell failure rates over a supply list."""
    from .errors import ParameterError
    from .variability import failure_rate_curve

    family = _family(strategy)
    try:
        design = family.design(node)
    except (ParameterError, KeyError):
        known = ", ".join(d.node.name for d in family.designs)
        print(f"error: unknown node {node!r}; known nodes: {known}",
              file=sys.stderr)
        return 2
    try:
        curve = failure_rate_curve(
            design.inverter, vdds, label=f"{strategy} {node}", mode=mode,
            method=method, n_trials=trials, seed=seed, slowdown=slowdown,
            snm_min_v=1e-3 * snm_min_mv, target_rel_err=target_rel_err,
            r_max_sigma=r_max_sigma)
    except ParameterError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"{strategy} {node}, {mode}-mode failure, "
          f"{method} estimator, seed {seed}")
    for vdd, est in zip(curve.vdd_v, curve.estimates):
        if est.p_fail == 0:
            print(f"  V_dd = {vdd:.3f} V: no failure within "
                  f"{r_max_sigma:g} sigma (p below resolution)")
            continue
        shift = (f", shift beta = {est.shift.beta_sigma:.2f} sigma"
                 if est.shift is not None else "")
        print(f"  V_dd = {vdd:.3f} V: p_fail = {est.p_fail:.3e} "
              f"({est.sigma:.2f} sigma), 95% CI "
              f"[{est.ci_lo:.2e}, {est.ci_hi:.2e}], "
              f"rel err {est.rel_err:.1%}, ESS {est.ess:.0f}, "
              f"{est.n_trials} trials{shift}")
    if profile:
        print(perf.report())
    return 0


def _cmd_array(strategy: str, node: str, study: str, rows: list[int],
               vdd: float, corners_mv: list[float], profile: bool) -> int:
    """Array-scale column/gate characterisation on the batched engine."""
    import numpy as np

    from .circuit.gate_netlists import (gate_leakage, nand2_netlist,
                                        nor2_netlist)
    from .circuit.sram import SramCell
    from .circuit.sram_array import (bitline_leakage_vs_height,
                                     min_write_pulse, read_snm_vs_height,
                                     write_trip_voltage)
    from .errors import ParameterError

    family = _family(strategy)
    try:
        design = family.design(node)
    except (ParameterError, KeyError):
        known = ", ".join(d.node.name for d in family.designs)
        print(f"error: unknown node {node!r}; known nodes: {known}",
              file=sys.stderr)
        return 2
    cell = SramCell(pulldown=design.nfet.with_width_um(2.0),
                    pullup=design.pfet.with_width_um(1.0),
                    access=design.nfet.with_width_um(1.0), vdd=vdd)
    shifts = 1e-3 * np.array(corners_mv)
    print(f"{strategy} {node} column @ {vdd:.2f} V")
    try:
        if study in ("leakage", "all"):
            leak = bitline_leakage_vs_height(cell, rows)
            print("bitline leakage under loading (all cells storing 0):")
            for n, i_bl, per in zip(leak.heights, leak.i_bl_a,
                                    leak.per_cell_a):
                print(f"  {n:4d} rows: I_bl = {i_bl:.3e} A "
                      f"({per:.3e} A/cell)")
        if study in ("read-snm", "all"):
            heights, snm, pinned = read_snm_vs_height(cell, rows)
            print("loaded read SNM ('1'-storing unaccessed rows):")
            for n, s in zip(heights, snm):
                print(f"  {n:4d} rows: SNM = {s * 1e3:.2f} mV")
            print(f"  pinned-bitline limit: {pinned * 1e3:.2f} mV")
        if study in ("write", "all"):
            n_rows = rows[0]
            trip = write_trip_voltage(cell, n_rows, dvth_n_v=shifts)
            pulse = min_write_pulse(cell, n_rows, dvth_n_v=shifts)
            print(f"write margins on a {n_rows}-row column, per "
                  "access-NFET corner:")
            for mv, t, w in zip(corners_mv, trip, pulse):
                print(f"  dVth,n = {mv:+6.1f} mV: trip = {t:.4f} V, "
                      f"min pulse = {w:.3e} s")
        if study in ("gates", "all"):
            for name, build in (("nand2", nand2_netlist),
                                ("nor2", nor2_netlist)):
                gate = build(design.nfet, design.pfet, vdd)
                a = np.array([0.0, 0.0, vdd, vdd])
                b = np.array([0.0, vdd, 0.0, vdd])
                leak_g = gate_leakage(gate, {"a": a, "b": b})
                states = ", ".join(
                    f"{int(x / vdd)}{int(y / vdd)}: {i:.2e} A"
                    for x, y, i in zip(a, b, leak_g))
                print(f"{name} truth-table leakage ({states})")
    except ParameterError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if profile:
        print(perf.report())
    return 0


def _cmd_grid_build(quick: bool, jobs: int, profile: bool,
                    validate_points: int) -> int:
    """Precompute, validate and spill the design-space grid tensors."""
    from .cache import cache_dir
    from .service import GridSpec, build_grid, fit_surrogate, store_grid
    from .service.surrogate import SURROGATE_TOL_REL, validate_surrogate

    if jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if cache_dir() is None:
        print("error: the disk cache is disabled; set REPRO_CACHE_DIR "
              "(or REPRO_CACHE=1) so the grid has somewhere to spill",
              file=sys.stderr)
        return 2
    spec = GridSpec.quick() if quick else GridSpec.default()
    start = time.perf_counter()
    grid = build_grid(spec, jobs=jobs)
    fill_s = time.perf_counter() - start
    bounds = validate_surrogate(fit_surrogate(grid),
                                max_points_per_node=validate_points)
    path = store_grid(grid)
    shape = spec.shape
    print(f"filled {shape[0] * shape[1]} shards "
          f"({'x'.join(str(n) for n in shape)} tensor per V_dd metric) "
          f"in {fill_s:.1f}s")
    worst = max(bounds, key=lambda m: bounds[m])
    print(f"surrogate worst-case error: {bounds[worst]:.2e} relative "
          f"({worst}); all bounds "
          + ("within" if all(b <= SURROGATE_TOL_REL
                             for b in bounds.values()) else "NOT within")
          + f" the {SURROGATE_TOL_REL:g} target")
    print(f"wrote {path}")
    if profile:
        print(perf.report())
    return 0


def _cmd_serve(transport: str, host: str, port: int, quick: bool,
               no_grid: bool) -> int:
    """Start the design-space query server on one transport."""
    import asyncio

    from .service import (DesignSpaceService, GridSpec, fit_surrogate,
                          load_grid, serve_http, serve_stdio)

    surrogate = None
    if not no_grid:
        spec = GridSpec.quick() if quick else GridSpec.default()
        grid = load_grid(spec)
        if grid is None:
            print("no grid tensors for the current model schema hash; "
                  "serving exact-only (run 'repro grid build' to "
                  "precompute)", file=sys.stderr)
        else:
            surrogate = fit_surrogate(grid)
    service = DesignSpaceService(surrogate)
    # Status goes to stderr: on the stdio transport, stdout is the
    # protocol channel.
    tier = "exact-only" if surrogate is None else "surrogate+exact"
    print(f"design-space service ready ({transport}, {tier}, "
          f"schema {service.schema_hash})", file=sys.stderr)
    try:
        if transport == "stdio":
            asyncio.run(serve_stdio(service))
        else:
            asyncio.run(serve_http(service, host=host, port=port))
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Nanometer Device Scaling in "
                    "Subthreshold Circuits' (DAC 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser("run", help="run experiments (or 'all')")
    run_parser.add_argument("experiment", nargs="+",
                            help="experiment id(s) or 'all'")
    run_parser.add_argument("--plot", action="store_true",
                            help="render ASCII charts of the series")
    run_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="run experiments across N worker "
                                 "processes (default 1)")
    run_parser.add_argument("--profile", action="store_true",
                            help="print solver/cache perf counters "
                                 "after the run")
    report_parser = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md / docs/RESULTS.md / "
                       "results.json from live runs")
    report_parser.add_argument("--check", action="store_true",
                               help="don't write; exit 2 if the committed "
                                    "docs are stale")
    report_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                               help="run experiments across N worker "
                                    "processes (default 1)")
    report_parser.add_argument("--only", nargs="+", metavar="ID",
                               help="restrict to these experiment ids "
                                    "(default: all registered)")
    report_parser.add_argument("--root", default=".", metavar="DIR",
                               help="repository root to write/check "
                                    "(default: current directory)")
    report_parser.add_argument("--manifest", metavar="PATH",
                               help="JSONL trace log path (default: "
                                    "<root>/.repro/manifest.jsonl)")
    lint_parser = sub.add_parser(
        "lint", help="check the repo's coding invariants (RPR rules)")
    lint_parser.add_argument("paths", nargs="*", metavar="PATH",
                             help="files/directories to check (default: "
                                  "all library sources under src/repro)")
    lint_parser.add_argument("--format", choices=("text", "json", "sarif"),
                             default="text", dest="output_format",
                             help="findings output format (default: text; "
                                  "sarif emits a SARIF 2.1.0 log for "
                                  "code-scanning upload)")
    lint_parser.add_argument("--root", metavar="DIR",
                             help="repository root (default: inferred "
                                  "from the package location)")
    lint_parser.add_argument("--baseline", metavar="PATH",
                             help="baseline file of grandfathered "
                                  "findings (default: <root>/"
                                  "lint-baseline.json)")
    lint_parser.add_argument("--update-baseline", action="store_true",
                             help="rewrite the baseline to cover the "
                                  "current findings, then exit 0")
    lint_parser.add_argument("--explain", metavar="RULE",
                             help="print a rule's catalogue entry and "
                                  "every matching finding with its "
                                  "derivation chain; positional args "
                                  "select findings (fingerprint prefix "
                                  "or path[:line])")
    grid_parser = sub.add_parser(
        "grid", help="manage precomputed design-space grid tensors")
    grid_sub = grid_parser.add_subparsers(dest="grid_command",
                                          required=True)
    grid_build = grid_sub.add_parser(
        "build", help="precompute + validate the grid, spill to the "
                      "disk cache (REPRO_CACHE_DIR)")
    grid_build.add_argument("--quick", action="store_true",
                            help="the tiny CI/test grid instead of the "
                                 "full serving grid")
    grid_build.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="fill shards across N worker processes "
                                 "(default 1; tensors are byte-identical "
                                 "for any N)")
    grid_build.add_argument("--validate-points", type=int, default=32,
                            metavar="N",
                            help="max exact-solve validation midpoints "
                                 "per node (default 32)")
    grid_build.add_argument("--profile", action="store_true",
                            help="print solver/cache perf counters "
                                 "after the build")
    serve_parser = sub.add_parser(
        "serve", help="answer design-space queries (surrogate-first, "
                      "exact fallback)")
    serve_parser.add_argument("--transport", choices=("stdio", "http"),
                              default="stdio",
                              help="newline-delimited JSON on stdio "
                                   "(default) or an HTTP endpoint")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="HTTP bind address (default "
                                   "127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8337,
                              help="HTTP port (default 8337; 0 lets "
                                   "the OS pick)")
    serve_parser.add_argument("--quick", action="store_true",
                              help="serve the tiny CI/test grid spec")
    serve_parser.add_argument("--no-grid", action="store_true",
                              help="skip grid loading; every query "
                                   "answers from the exact tier")
    yield_parser = sub.add_parser(
        "yield", help="estimate rare-event cell failure rates "
                      "(scrambled-Sobol QMC + importance sampling)")
    yield_parser.add_argument("--strategy", default="sub-vth",
                              help="super-vth or sub-vth (default "
                                   "sub-vth)")
    yield_parser.add_argument("--node", default="32nm",
                              help="technology node (default 32nm)")
    yield_parser.add_argument("--vdd", type=float, nargs="+",
                              default=[0.25], metavar="V",
                              help="supply voltages to sweep [V] "
                                   "(default 0.25)")
    yield_parser.add_argument("--mode", choices=("delay", "snm"),
                              default="delay",
                              help="failure mode: delay exceedance "
                                   "(default) or SNM collapse")
    yield_parser.add_argument("--method",
                              choices=("mc", "qmc", "is", "qmc-is"),
                              default="qmc-is",
                              help="estimator (default qmc-is)")
    yield_parser.add_argument("--trials", type=int, default=2048,
                              metavar="N",
                              help="trial budget per supply point "
                                   "(default 2048; powers of two keep "
                                   "the Sobol' balance)")
    yield_parser.add_argument("--seed", type=int, default=2007,
                              help="root stream seed (default 2007)")
    yield_parser.add_argument("--slowdown", type=float, default=1.5,
                              metavar="X",
                              help="delay-mode timing window as a "
                                   "multiple of nominal (default 1.5)")
    yield_parser.add_argument("--snm-min-mv", type=float, default=0.0,
                              metavar="MV",
                              help="snm-mode required margin [mV] "
                                   "(default 0: outright collapse)")
    yield_parser.add_argument("--target-rel-err", type=float,
                              default=None, metavar="R",
                              help="stop early once the relative "
                                   "standard error falls below R")
    yield_parser.add_argument("--r-max-sigma", type=float, default=10.0,
                              metavar="S",
                              help="failure-point search horizon in "
                                   "sigma (default 10)")
    yield_parser.add_argument("--profile", action="store_true",
                              help="print perf counters after the run")
    array_parser = sub.add_parser(
        "array", help="characterise SRAM columns and gate netlists on "
                      "the compiled batched MNA engine")
    array_parser.add_argument("--strategy", default="sub-vth",
                              help="super-vth or sub-vth (default "
                                   "sub-vth)")
    array_parser.add_argument("--node", default="32nm",
                              help="technology node (default 32nm)")
    array_parser.add_argument("--study",
                              choices=("leakage", "read-snm", "write",
                                       "gates", "all"),
                              default="all",
                              help="which characterisation to run "
                                   "(default all)")
    array_parser.add_argument("--rows", type=int, nargs="+",
                              default=[2, 4, 8, 16], metavar="N",
                              help="array heights to sweep (write "
                                   "study uses the first; default "
                                   "2 4 8 16)")
    array_parser.add_argument("--vdd", type=float, default=0.30,
                              metavar="V",
                              help="column supply [V] (default 0.30)")
    array_parser.add_argument("--corners-mv", type=float, nargs="+",
                              default=[-20.0, 0.0, 20.0], metavar="MV",
                              help="access-NFET dVth corners [mV] for "
                                   "the write study (default -20 0 20)")
    array_parser.add_argument("--profile", action="store_true",
                              help="print perf counters after the run")
    cards_parser = sub.add_parser(
        "cards", help="print a strategy family's model cards")
    cards_parser.add_argument("strategy", help="super-vth or sub-vth")
    save_parser = sub.add_parser(
        "save-family", help="optimise a strategy family and save it as JSON")
    save_parser.add_argument("strategy", help="super-vth or sub-vth")
    save_parser.add_argument("path", help="output JSON path")
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "report":
        return _cmd_report(args.root, check=args.check, jobs=args.jobs,
                           only=args.only, manifest_path=args.manifest)
    if args.command == "lint":
        from .lint import run_lint_command
        return run_lint_command(paths=args.paths,
                                output_format=args.output_format,
                                root=args.root,
                                baseline_path=args.baseline,
                                update_baseline=args.update_baseline,
                                explain=args.explain)
    if args.command == "grid":
        return _cmd_grid_build(quick=args.quick, jobs=args.jobs,
                               profile=args.profile,
                               validate_points=args.validate_points)
    if args.command == "serve":
        return _cmd_serve(transport=args.transport, host=args.host,
                          port=args.port, quick=args.quick,
                          no_grid=args.no_grid)
    if args.command == "yield":
        return _cmd_yield(strategy=args.strategy, node=args.node,
                          vdds=args.vdd, mode=args.mode,
                          method=args.method, trials=args.trials,
                          seed=args.seed, slowdown=args.slowdown,
                          snm_min_mv=args.snm_min_mv,
                          target_rel_err=args.target_rel_err,
                          r_max_sigma=args.r_max_sigma,
                          profile=args.profile)
    if args.command == "array":
        return _cmd_array(strategy=args.strategy, node=args.node,
                          study=args.study, rows=args.rows,
                          vdd=args.vdd, corners_mv=args.corners_mv,
                          profile=args.profile)
    if args.command == "cards":
        return _cmd_cards(args.strategy)
    if args.command == "save-family":
        return _cmd_save_family(args.strategy, args.path)
    return _cmd_run(args.experiment, plot=args.plot, jobs=args.jobs,
                    profile=args.profile)


if __name__ == "__main__":
    sys.exit(main())
