"""Benches: the design-space service tiers.

The acceptance numbers for ``repro serve``: a warm (surrogate) query
must answer in well under a millisecond at the median, the surrogate
fit (pchip densify included) must stay interactive, and the grid fill
and exact fallback are recorded for regression tracking.  Runs under
``tools/bench_record.py --suite service`` into ``BENCH_service.json``.
"""

import pytest
from conftest import run_once, run_rounds

from repro.service import (DesignSpaceService, GridSpec, build_grid,
                           fit_surrogate)
from repro.scaling.roadmap import node_by_name

#: Serving axis density (pchip-eligible) over one node — the same
#: window the test suite validates to <= SURROGATE_TOL_REL.
SPEC = GridSpec(
    nodes=("65nm",),
    l_ratios=tuple(round(1.5 + 0.05 * i, 4) for i in range(11)),
    log10_ioff=(-10.6, -10.4, -10.2, -10.0),
    vdd_v=(0.24, 0.26, 0.28, 0.30, 0.32),
)

#: Two-shard spec for timing the fill itself.
MICRO = GridSpec(nodes=("65nm",), l_ratios=(1.5, 2.0),
                 log10_ioff=(-10.5, -10.0), vdd_v=(0.25, 0.30))

NODE = node_by_name("65nm")

WARM_QUERY = {"query": "metrics", "node": "65nm",
              "l_poly_nm": 1.73 * NODE.l_poly_nm,
              "ioff_target_a_per_um": 10.0 ** -10.3, "vdd_v": 0.283}


@pytest.fixture(scope="module")
def grid():
    return build_grid(SPEC)


@pytest.fixture(scope="module")
def service(grid):
    return DesignSpaceService(fit_surrogate(grid))


def test_bench_grid_fill(benchmark):
    filled = run_rounds(benchmark, build_grid, MICRO)
    assert filled.spec.shape == (1, 2, 2, 2)


def test_bench_surrogate_fit(benchmark, grid):
    surrogate = run_once(benchmark, fit_surrogate, grid)
    assert surrogate.nodes == ("65nm",)


def test_bench_warm_query(benchmark, service):
    """The headline acceptance number: warm queries answer from the
    densified linear interpolants in sub-ms at the median."""
    response = benchmark(service.handle, WARM_QUERY)
    assert response["ok"] is True
    assert response["provenance"]["source"] == "surrogate"
    assert benchmark.stats.stats.median < 1e-3


def test_bench_exact_fallback(benchmark, service):
    """The cache-miss path: a full doping root-solve plus every metric
    (SNM curves, the V_min sweep) — what a cold point costs."""
    request = dict(WARM_QUERY, vdd_v=0.45)
    response = run_rounds(benchmark, service.handle, request)
    assert response["ok"] is True
    assert response["provenance"]["source"] == "exact"
