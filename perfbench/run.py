"""End-to-end benchmark of the reproduction: ``report``, ``grid``, ``serve``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload report --seed 1 --seconds 30 --trace 0

``--workload`` is ``report``, ``grid``, ``serve`` or ``all``.  With
``--trace 0`` the run prints every end-to-end metric; with
``--trace 1`` a separate, traced run prints every per-layer metric.
Human-readable lines come first; the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every job runs in a fresh process started from this
one, with BLAS pinned to one thread and the program's disk cache off
(``serve`` points it at a cache of its own under ``.bench_build/``).
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import inputs
import layers
import loadgen
import stats
import worker
from runrecord import child_env, pin_blas, run_record

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
WORKER = pathlib.Path(__file__).resolve().parent / "worker.py"

WORKLOADS = ("report", "grid", "serve")

#: End-to-end metrics: (name, unit).
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MiB"), ("wait_s", "s"),
              ("cpu_s", "s"))

#: Seconds budgeted per job: a run of ``--seconds`` does
#: ``floor(seconds / budget)`` jobs, at least one.  A job takes 10-19 s
#: here, depending on how fast the shared machine is at the moment.
JOB_BUDGET_S = {"report": 20.0, "grid": 20.0}

#: Import-only processes per run whose set-up time is sampled.
SETUP_PROBES = 3

#: Server starts per ``serve`` run whose set-up time is sampled.
SERVER_STARTS = 4

#: Offered load of the ``serve`` workload and its connections.
SERVE_RATE_PER_S = 40.0
SERVE_CONNECTIONS = 2

#: Responses of an untraced ``serve`` run re-answered in-process.
SERVE_CHECK_SAMPLE = 60

#: A run must end within this many seconds of starting.
RUN_BUDGET_S = 175.0


class Run:
    """Inputs, time budget and worker processes of one workload run."""

    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.env = child_env(ROOT)

    def remaining(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise TimeoutError("run exceeded its time budget")
        return left

    def worker(self, args: list[str], env: dict | None = None,
               stdin: str | None = None) -> tuple[dict, float]:
        """Run ``worker.py`` to completion; (its result, spawn clock)."""
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], cwd=ROOT,
            env=env or self.env, input=stdin, capture_output=True,
            text=True, timeout=self.remaining())
        if proc.returncode != 0:
            raise RuntimeError(f"worker {args[0]} failed "
                               f"({proc.returncode}): {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def _ms(seconds: list[float], q: float) -> float:
    return 1000.0 * stats.percentile(seconds, q)


# -- report and grid ---------------------------------------------------------

def _job_args(run: Run, rep: int, trace: bool) -> list[str]:
    args = [run.workload, "--seed", str(run.seed), "--rep", str(rep),
            "--trace", str(int(trace))]
    if trace:
        args += ["--spans",
                 str(WORKDIR / f"trace-{run.workload}-{run.seed}.json")]
    return args


def _job_failures(jobs: list[dict]) -> tuple[int, list[str]]:
    attempted = sum(job["attempted"] for job in jobs)
    return attempted, [f for job in jobs for f in job["failures"]]


def batch_untraced(run: Run) -> tuple[dict, int, list[str], list[str]]:
    """End-to-end metrics of ``report`` or ``grid``."""
    modules = (worker.REPORT_MODULES if run.workload == "report"
               else worker.GRID_MODULES)
    run.worker(["probe", *modules])  # compiles bytecode; not timed
    setup = []
    for _ in range(SETUP_PROBES):
        result, spawned = run.worker(["probe", *modules])
        setup.append(result["ready_mono"] - spawned)
    reps = max(1, int(run.seconds // JOB_BUDGET_S[run.workload]))
    jobs = []
    for rep in range(reps):
        result, spawned = run.worker(_job_args(run, rep, trace=False))
        setup.append(result["ready_mono"] - spawned)
        jobs.append(result)
    attempted, failures = _job_failures(jobs)
    wait = stats.median(job["wall_s"] for job in jobs)
    values = {
        "setup_s": stats.median(setup),
        "peak_rss_mb": stats.median(job["peak_rss_mb"] for job in jobs),
        "wait_s": wait,
        "cpu_s": stats.median(job["cpu_s"] for job in jobs),
    }
    lines = [f"jobs: {reps} x {run.workload} in fresh processes; "
             f"set-up samples: {len(setup)}"]
    if run.workload == "report":
        lines.append(f"report_s = {wait:.3f} s (suite + docs, median of "
                     f"{reps}); claims checked: {attempted}")
        heavy = {eid: stats.median(j["experiment_s"][eid] for j in jobs)
                 for eid in layers.HEAVY_EXPERIMENTS}
        lines.append("heavy experiments: " + ", ".join(
            f"{eid} {s:.2f} s" for eid, s in heavy.items()))
    else:
        points = sum(job["points"] for job in jobs)
        total = sum(job["wall_s"] for job in jobs)
        lines.append(f"grid_points_per_s = {points / total:.2f} 1/s "
                     f"({points} points, fill + fit + validate)")
        for job in jobs:
            lines.append(f"window {json.dumps(job['window'])}: "
                         f"{job['wall_s']:.2f} s")
    return values, attempted, failures, lines


def batch_traced(run: Run) -> tuple[dict, int, list[str], list[str]]:
    """Per-layer metrics of ``report`` or ``grid``: one plain and one
    traced job on the same inputs."""
    plain, _spawned = run.worker(_job_args(run, 0, trace=False))
    traced, _spawned = run.worker(_job_args(run, 0, trace=True))
    attempted, failures = _job_failures([plain, traced])
    measured = {
        "trace.overhead_frac": traced["wall_s"] / plain["wall_s"] - 1.0,
        "trace.untraced_frac": traced["untraced_frac"],
    }
    values = layers.layer_metrics(traced["span_totals"], traced["counters"],
                                  plain.get("experiment_s"), measured)
    lines = [f"traced {run.workload}: plain {plain['wall_s']:.3f} s, "
             f"traced {traced['wall_s']:.3f} s; spans in "
             f"{WORKDIR / f'trace-{run.workload}-{run.seed}.json'}"]
    return values, attempted, failures, lines


# -- serve -------------------------------------------------------------------

def _fill_serving_grid(run: Run) -> tuple[pathlib.Path, dict]:
    """The quick serving grid's file, filled once per checkout.

    Filled outside any timing into ``.bench_build/perfbench/grid-cache``
    (a later run finds it there); returns its path and axes.
    """
    pristine = WORKDIR / "grid-cache"
    pristine.mkdir(parents=True, exist_ok=True)
    fill, _spawned = run.worker(["gridfill"],
                                env=child_env(ROOT, cache_dir=pristine))
    return pathlib.Path(fill["path"]), fill["hull"]


def _fresh_cache(grid_file: pathlib.Path, tag: str) -> pathlib.Path:
    """A new cache directory holding the grid file alone.

    The server spills solver brackets into its cache as it answers,
    so every process that answers queries gets a directory of its own
    and starts from the same disk state.
    """
    cache = WORKDIR / f"run-{os.getpid()}-{tag}"
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir(parents=True)
    shutil.copy2(grid_file, cache)
    return cache


def _node_lengths(hull: dict) -> dict[str, float]:
    from repro.scaling.roadmap import node_by_name
    return {name: node_by_name(name).l_poly_nm for name in hull["nodes"]}


def _tier_latencies(session: loadgen.Session, answers: list[dict | None]
                    ) -> dict[str, list[float]]:
    tiers: dict[str, list[float]] = {"surrogate": [], "exact": []}
    for i, answer in enumerate(answers):
        latency = session.latency_s(i)
        if answer is not None and answer.get("ok") and latency is not None:
            tiers.setdefault(answer["provenance"]["source"],
                             []).append(latency)
    return tiers


def _tier_lines(tiers: dict[str, list[float]], late: list[float],
                session: loadgen.Session) -> list[str]:
    lines = []
    for tier, named in (("surrogate", (50.0, 99.0)),
                        ("exact", (50.0, 90.0))):
        sample = tiers.get(tier, [])
        if not sample:
            lines.append(f"{tier}: no requests answered")
            continue
        top = stats.supported_percentile(len(sample))
        parts = [f"{tier}_p{q:g}_ms = {_ms(sample, q):.3f} ms" +
                 ("" if stats.enough_beyond(len(sample), q)
                  else " (under 10 samples beyond)")
                 for q in named]
        supported = ("no percentile" if top is None
                     else f"p{top:g}")
        lines.append(f"{tier}: n={len(sample)}, " + ", ".join(parts)
                     + f"; highest supported percentile: {supported}")
    lines.append(f"loadgen.late_p99_ms = {_ms(late, 99.0):.3f} ms; "
                 f"outstanding {loadgen.BACKLOG_GRACE_S:g} s after the "
                 f"last due time: {session.backlog}"
                 + (" (BACKLOG GREW: the server did not keep up)"
                    if session.backlog else ""))
    return lines


def _decode(session: loadgen.Session) -> tuple[list[dict | None], list[str]]:
    answers: list[dict | None] = []
    failures: list[str] = []
    for i, body in enumerate(session.bodies):
        if body is None:
            answers.append(None)
            failures.append(f"request {i} unanswered")
            continue
        try:
            answer = json.loads(body)
        except ValueError:
            answers.append(None)
            failures.append(f"request {i}: unparseable answer")
            continue
        answers.append(answer)
        if not answer.get("ok"):
            failures.append(f"request {i}: {answer.get('error')}: "
                            f"{answer.get('message')}")
    return answers, failures


def _replay(run: Run, grid_file: pathlib.Path, requests: list[dict],
            trace: bool) -> dict:
    """Answer ``requests`` in a fresh in-process service."""
    cache = _fresh_cache(grid_file, f"replay{int(trace)}")
    try:
        result, _spawned = run.worker(
            ["replay", "--trace", str(int(trace))],
            env=child_env(ROOT, cache_dir=cache),
            stdin=json.dumps({"requests": requests}))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return result


def _mismatches(indices, answers, replayed) -> list[str]:
    return [f"request {i}: HTTP answer differs from in-process handle"
            for i, expected in zip(indices, replayed)
            if answers[i] is not None and answers[i] != expected]


def serve(run: Run, trace: bool) -> tuple[dict, int, list[str], list[str]]:
    """The ``serve`` workload: open-loop HTTP load on ``repro serve``."""
    grid_file, hull = _fill_serving_grid(run)
    cache = _fresh_cache(grid_file, "server")
    try:
        return _serve(run, trace, grid_file, cache, hull)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def _serve(run: Run, trace: bool, grid_file: pathlib.Path,
           cache: pathlib.Path, hull: dict
           ) -> tuple[dict, int, list[str], list[str]]:
    lengths = _node_lengths(hull)
    stream = inputs.query_stream(run.seed, hull, lengths, SERVE_RATE_PER_S,
                                 run.seconds)
    requests = [request for _due, _kind, request in stream]
    env = child_env(ROOT, cache_dir=cache)
    log = cache / "server.log"
    failures: list[str] = []
    setup = []
    for _ in range(0 if trace else SERVER_STARTS - 1):
        with loadgen.ServerProcess(ROOT, env, log) as server:
            setup.append(server.start())
    with loadgen.ServerProcess(ROOT, env, log) as server:
        setup.append(server.start())
        if not (server.info or {}).get("grid"):
            failures.append("server started without its grid "
                            "(exact-only)")
        warm = loadgen.ask(server.address,
                           inputs.warmup_requests(run.seed, hull, lengths))
        failures += [f"warm-up {a.get('id')}: {a.get('error')}"
                     for a in warm if not a.get("ok")]
        cpu0 = server.cpu_s()
        session = loadgen.open_loop(server.address, requests,
                                    [due for due, _k, _r in stream],
                                    SERVE_CONNECTIONS)
        cpu_s = server.cpu_s() - cpu0
        peak_rss_mb = server.peak_rss_mb()
    answers, bad = _decode(session)
    failures += bad
    tiers = _tier_latencies(session, answers)
    late = session.late_s()
    lines = [f"open loop: {len(requests)} requests at "
             f"{SERVE_RATE_PER_S:g}/s over {SERVE_CONNECTIONS} keep-alive "
             f"connections; server CPU {cpu_s:.2f} s "
             f"({cpu_s / (session.end - session.start):.0%} busy)"]
    lines += _tier_lines(tiers, late, session) + session.errors

    if not trace:
        sample = inputs.sample_indices(len(requests), run.seed, "serve-check",
                                       SERVE_CHECK_SAMPLE)
        replayed = _replay(run, grid_file, [requests[i] for i in sample],
                           False)
        failures += _mismatches(sample, answers, replayed["responses"])
        if not tiers.get("exact"):
            raise RuntimeError("no exact-tier request was answered")
        values = {"setup_s": stats.median(setup),
                  "peak_rss_mb": peak_rss_mb,
                  "wait_s": stats.median(tiers["exact"]),
                  "cpu_s": cpu_s}
        lines.append(f"set-up samples: {len(setup)}; responses "
                     f"re-checked in-process: {len(sample)}")
        return values, len(requests), failures, lines

    plain = _replay(run, grid_file, requests, False)
    traced = _replay(run, grid_file, requests, True)
    failures += _mismatches(range(len(requests)), answers,
                            plain["responses"])
    in_process = {"surrogate": [], "exact": []}
    for dt, response in zip(plain["latency_s"], plain["responses"]):
        if response.get("ok"):
            in_process.setdefault(response["provenance"]["source"],
                                  []).append(dt)
    measured = {
        "loadgen.late_p99_ms": _ms(late, 99.0),
        "trace.overhead_frac": traced["wall_s"] / plain["wall_s"] - 1.0,
        "trace.untraced_frac": traced["untraced_frac"],
    }
    if in_process["surrogate"]:
        measured["service.handle.surrogate_p50_us"] = 1000.0 * _ms(
            in_process["surrogate"], 50.0)
    if in_process["exact"]:
        measured["service.handle.exact_p50_ms"] = _ms(in_process["exact"],
                                                      50.0)
    for tier, qs in (("surrogate", (50.0, 99.0)), ("exact", (50.0, 90.0))):
        for q in qs:
            if tiers.get(tier):
                measured[f"service.http.{tier}_p{q:g}_ms"] = _ms(tiers[tier],
                                                                 q)
    if tiers.get("surrogate") and in_process["surrogate"]:
        measured["service.transport_overhead_ms"] = (
            _ms(tiers["surrogate"], 50.0) - _ms(in_process["surrogate"],
                                                 50.0))
    values = layers.layer_metrics(traced["span_totals"], traced["counters"],
                                  None, measured)
    lines.append(f"in-process replay: plain {plain['wall_s']:.3f} s, "
                 f"traced {traced['wall_s']:.3f} s")
    return values, len(requests), failures, lines


# -- entry point ---------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: int, trace: bool
                 ) -> tuple[dict, int, list[str], list[str]]:
    run = Run(workload, seed, seconds)
    if workload == "serve":
        values, attempted, failures, lines = serve(run, trace)
    elif trace:
        values, attempted, failures, lines = batch_traced(run)
    else:
        values, attempted, failures, lines = batch_untraced(run)
    names = ([(name, unit) for name, unit, _better in layers.PER_LAYER]
             if trace else END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in names}
    return metrics, attempted, failures, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_blas(os.environ)  # before this process imports numpy
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/repro package to benchmark",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    combined: dict[str, dict] = {}
    attempted = 0
    failures: list[str] = []
    for workload in chosen:
        metrics, n, bad, lines = run_workload(workload, args.seed,
                                              args.seconds, bool(args.trace))
        attempted += n
        failures += bad
        print(f"== {workload} (seed {args.seed}, trace {args.trace}) ==")
        for line in lines:
            print(line)
        for name, metric in metrics.items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}")
        for failure in bad[:20]:
            print(f"FAILED: {failure}")
        prefix = f"{workload}." if len(chosen) > 1 else ""
        combined.update({prefix + k: v for k, v in metrics.items()})
    print("record: " + json.dumps(run_record(ROOT), sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
