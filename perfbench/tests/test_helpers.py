"""Tests of the benchmark's own helpers.

Run from the root of a checkout::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import sys
import types

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


# -- percentile rule ---------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (19, None),     # 9.5 beyond the median
    (20, 50.0),
    (39, 50.0),     # 9.75 beyond p75
    (40, 75.0),
    (100, 90.0),
    (199, 90.0),    # 9.95 beyond p95
    (200, 95.0),
    (999, 95.0),    # 9.99 beyond p99
    (1000, 99.0),
    (1080, 99.0),
    (10000, 99.9),
])
def test_supported_percentile_is_highest_with_ten_beyond(n, expected):
    assert stats.supported_percentile(n) == expected


def test_percentile_interpolates_linearly():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile(values, 90) == pytest.approx(4.6)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# -- self time ---------------------------------------------------------------

def _tree() -> list[tracing.Span]:
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and
    # c [8, 12] (sticking out past the root); a has a grandchild a1
    # [2, 3]; r [22, 25] is a second top-level span that recurses into
    # r [23, 24].
    return [
        tracing.Span(0, "root", 0.0, 10.0, None),
        tracing.Span(1, "a", 1.0, 4.0, 0),
        tracing.Span(2, "a1", 2.0, 3.0, 1),
        tracing.Span(3, "b", 3.0, 6.0, 0),
        tracing.Span(4, "c", 8.0, 12.0, 0),
        tracing.Span(5, "r", 22.0, 25.0, None),
        tracing.Span(6, "r", 23.0, 24.0, 5),
    ]


def test_self_time_subtracts_union_of_children():
    own = tracing.self_times(_tree())
    # children cover [1, 6] and [8, 10] of the root: 7 of its 10 s.
    assert own[0] == pytest.approx(3.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(4.0)
    assert own[5] == pytest.approx(2.0)
    assert own[6] == pytest.approx(1.0)


def test_totals_count_recursion_once_inclusively():
    out = tracing.totals(_tree())
    assert out["r"] == {"calls": 2, "inclusive_s": 3.0,
                        "self_s": pytest.approx(3.0)}
    assert out["root"]["self_s"] == pytest.approx(3.0)
    # the root's 10 s, c's 2 s past it, and [3, 4] where a and b overlap
    # (each sibling keeps its own self time)
    assert sum(v["self_s"] for k, v in out.items() if k != "r") == \
        pytest.approx(13.0)


def test_covered_excludes_named_spans():
    spans = _tree()
    assert tracing.covered(spans, 0.0, 30.0) == pytest.approx(15.0)
    assert tracing.covered(spans, 0.0, 30.0,
                           exclude=lambda n: n == "root") == \
        pytest.approx(12.0)


def test_tracer_records_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent_id == outer.span_id and outer.parent_id is None
    assert (outer.start, inner.start, inner.end, outer.end) == \
        (0.0, 1.0, 2.0, 3.0)
    assert tracing.self_times(tracer.spans)[outer.span_id] == 2.0


# -- rebinding ---------------------------------------------------------------

@pytest.fixture
def fake_package():
    """``pbfake.core`` defines the functions; ``pbfake.user`` aliases
    them the ways callers do."""
    core = types.ModuleType("pbfake.core")

    def solve(x):
        return x + 1

    def helper(x):
        return x * 2

    class Engine:
        def run(self, x):
            return solve(x)

        run_static = staticmethod(helper)

    solve.__module__ = helper.__module__ = "pbfake.core"
    Engine.__module__ = "pbfake.core"
    core.solve, core.helper, core.Engine = solve, helper, Engine

    user = types.ModuleType("pbfake.user")

    class Client:
        handler = solve

    Client.__module__ = "pbfake.user"
    user.solve = solve            # from pbfake.core import solve
    user.fast = solve             # from pbfake.core import solve as fast
    user.Client = Client
    package = types.ModuleType("pbfake")
    package.solve = solve         # re-export in __init__
    modules = {"pbfake": package, "pbfake.core": core, "pbfake.user": user}
    sys.modules.update(modules)
    yield types.SimpleNamespace(core=core, user=user, package=package,
                                solve=solve, helper=helper,
                                run=Engine.__dict__["run"])
    for name in modules:
        sys.modules.pop(name, None)


def test_patched_rebinds_and_restores_every_alias(fake_package):
    fp = fake_package
    tracer = tracing.Tracer()
    points = [(fp.solve, "core.solve"), (fp.helper, "core.helper"),
              (fp.run, "core.Engine.run")]
    with tracing.patched(tracer, points, "pbfake"):
        aliases = [fp.core.solve, fp.user.solve, fp.user.fast,
                   fp.package.solve, fp.user.Client.__dict__["handler"]]
        assert all(a is not fp.solve for a in aliases)
        assert all(a.__wrapped__ is fp.solve for a in aliases)
        assert fp.core.Engine.__dict__["run"] is not fp.run
        assert fp.core.Engine.run_static is not fp.helper
        # an alias made while patched is restored too
        fp.user.late = fp.core.solve
        assert fp.user.fast(1) == 2
        assert fp.core.Engine().run(1) == 2
        assert fp.core.Engine.run_static(3) == 6
    names = [span.name for span in tracer.spans]
    assert names == ["core.solve", "core.Engine.run", "core.helper"]
    assert all(a is fp.solve for a in (
        fp.core.solve, fp.user.solve, fp.user.fast, fp.package.solve,
        fp.user.late, fp.user.Client.__dict__["handler"]))
    assert fp.core.Engine.__dict__["run"] is fp.run
    assert isinstance(fp.core.Engine.__dict__["run_static"], staticmethod)
    assert fp.core.Engine.__dict__["run_static"].__func__ is fp.helper


def test_patched_restores_after_an_exception(fake_package):
    fp = fake_package
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer(), [(fp.solve, "s")], "pbfake"):
            raise RuntimeError("boom")
    assert fp.user.fast is fp.solve


def test_rebind_leaves_other_packages_alone(fake_package):
    other = types.ModuleType("pbother")
    other.solve = fake_package.solve
    sys.modules["pbother"] = other
    try:
        with tracing.patched(tracing.Tracer(),
                             [(fake_package.solve, "s")], "pbfake"):
            assert other.solve is fake_package.solve
    finally:
        del sys.modules["pbother"]


# -- seeded inputs -----------------------------------------------------------

AXES = {
    "nodes": ["90nm", "65nm", "45nm", "32nm"],
    "l_ratios": [round(1.0 + 0.05 * i, 4) for i in range(21)],
    "log10_ioff": [round(-11.5 + 2.5 * i / 13.0, 6) for i in range(14)],
    "vdd_v": [round(0.16 + 0.02 * i, 4) for i in range(18)],
}
HULL = {"nodes": ["90nm", "65nm"],
        "l_ratios": [round(1.5 + 0.05 * i, 4) for i in range(11)],
        "log10_ioff": [-10.6, -10.4, -10.2, -10.0],
        "vdd_v": [0.24, 0.26, 0.28, 0.30, 0.32]}
LENGTHS = {"90nm": 50.0, "65nm": 35.0}


def test_experiment_order_is_a_seeded_permutation():
    ids = [f"e{i}" for i in range(31)]
    assert inputs.experiment_order(ids, 1) == inputs.experiment_order(ids, 1)
    assert inputs.experiment_order(ids, 1) != inputs.experiment_order(ids, 2)
    assert inputs.experiment_order(ids, 1, 0) != \
        inputs.experiment_order(ids, 1, 1)
    assert sorted(inputs.experiment_order(ids, 7)) == sorted(ids)


def test_grid_window_is_a_seeded_sub_block():
    same = inputs.grid_window(AXES, 3)
    assert same == inputs.grid_window(AXES, 3)
    assert len({json.dumps(inputs.grid_window(AXES, s))
                for s in range(10)}) > 1
    for seed in range(20):
        window = inputs.grid_window(AXES, seed)
        shape = tuple(len(window[k]) for k in
                      ("nodes", "l_ratios", "log10_ioff", "vdd_v"))
        assert shape == inputs.GRID_WINDOW_SHAPE
        assert window["nodes"] == [n for n in AXES["nodes"]
                                   if n in window["nodes"]]
        for name in ("l_ratios", "log10_ioff", "vdd_v"):
            start = AXES[name].index(window[name][0])
            assert window[name] == AXES[name][start:start + len(window[name])]


def test_grid_sample_cells_are_seeded_and_in_range():
    cells = inputs.grid_sample_cells((2, 11, 4, 5), 1, 0, 6)
    assert cells == inputs.grid_sample_cells((2, 11, 4, 5), 1, 0, 6)
    assert cells != inputs.grid_sample_cells((2, 11, 4, 5), 2, 0, 6)
    assert len(set(cells)) == 6
    assert all(0 <= c < n for cell in cells
               for c, n in zip(cell, (2, 11, 4, 5)))


def test_query_stream_is_seeded_with_a_fixed_tier_mix():
    one = inputs.query_stream(1, HULL, LENGTHS, 40.0, 30)
    assert one == inputs.query_stream(1, HULL, LENGTHS, 40.0, 30)
    assert one != inputs.query_stream(2, HULL, LENGTHS, 40.0, 30)
    assert len(one) == 1200
    kinds = [kind for _due, kind, _request in one]
    assert sum(k in inputs.EXACT_KINDS for k in kinds) == 120
    for block in range(120):
        chunk = kinds[block * 10:(block + 1) * 10]
        assert sum(k in inputs.EXACT_KINDS for k in chunk) == 1
    assert kinds.count("snm_vmin_ff") == kinds.count("snm_vmin_ss") == 30
    assert kinds.count("snm_vmin_tt") == 360
    dues = [due for due, _kind, _request in one]
    assert dues == sorted(dues) and 20.0 < dues[-1] < 40.0


def test_query_stream_points_sit_where_their_tier_answers():
    for _due, kind, request in inputs.query_stream(5, HULL, LENGTHS, 40, 5):
        ratio = request["l_poly_nm"] / LENGTHS[request["node"]]
        assert HULL["l_ratios"][0] <= ratio <= HULL["l_ratios"][-1]
        if kind == "metrics_offhull":
            assert request["vdd_v"] > HULL["vdd_v"][-1]
        else:
            assert HULL["vdd_v"][0] <= request["vdd_v"] <= HULL["vdd_v"][-1]
        assert request.get("corner", "tt") == (
            kind.rsplit("_", 1)[1] if kind.startswith("snm_vmin") else "tt")


# -- BENCHMARK.json agrees with the code ---------------------------------------

def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    import run
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_layer_metrics_fill_every_name():
    values = layers.layer_metrics(
        {"numerics.bisect_masked": {"calls": 3, "inclusive_s": 2.0,
                                    "self_s": 1.5}},
        {"numerics.active_lanes": 3, "numerics.total_lanes": 4,
         "cache.device.hits": 1, "cache.device.misses": 3},
        {"ext_yield": 8.0, "fig4": 0.25, "fig5": 0.5},
        {"trace.overhead_frac": 0.02})
    assert set(values) == {name for name, _u, _b in layers.PER_LAYER}
    assert values["numerics.bisect_masked.self_s"] == 1.5
    assert values["numerics.lane_ratio"] == 0.75
    assert values["cache.device.hit_ratio"] == 0.25
    assert values["cache.bracket.hit_ratio"] == 0.0
    assert values["experiments.ext_yield_s"] == 8.0
    assert values["experiments.rest_s"] == 0.75
    assert values["trace.overhead_frac"] == 0.02
    with pytest.raises(KeyError):
        layers.layer_metrics({}, {}, None, {"no.such_metric": 1.0})
