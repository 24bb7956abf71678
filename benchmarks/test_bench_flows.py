"""Benches: the batched design-space engine (scaling flows).

Each optimiser flow is timed cold — the warm-start bracket cache is
cleared before every round — and paired with its sequential twin from
:mod:`repro.reference` so ``BENCH_flows.json`` records the
before/after of the vectorisation.
The sequential sub-V_th sweeps are the slow half; set
``REPRO_BENCH_QUICK=1`` (the CI quick mode) to skip them.
"""

import os

import numpy as np
import pytest

from repro import perf, reference
from repro.device.mosfet import Polarity
from repro.scaling.batch import bracket_memo, optimize_doping_stack
from repro.scaling.multivth import derive_flavours
from repro.scaling.roadmap import node_by_name
from repro.scaling.sensitivity import headline_under_calibration
from repro.scaling.subvth import (HALO_RATIO_GRID, SS_TIE_TOLERANCE,
                                  build_sub_vth_family)
from repro.scaling.supervth import build_super_vth_family

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
slow = pytest.mark.skipif(
    QUICK, reason="sequential oracle skipped in quick mode")


def _cold():
    """Clear the caches a prior round (or fixture) may have warmed."""
    bracket_memo.clear()


def run_cold(benchmark, func, *args, **kwargs):
    """One cold-cache round per bench (flows are deterministic)."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, setup=_cold,
                              rounds=1, iterations=1, warmup_rounds=0)


def test_bench_super_family_batch(benchmark):
    family = run_cold(benchmark, build_super_vth_family)
    assert family.node_names() == ("90nm", "65nm", "45nm", "32nm")


def test_bench_super_family_sequential(benchmark):
    family = run_cold(benchmark, reference.build_super_vth_family)
    assert family.node_names() == ("90nm", "65nm", "45nm", "32nm")


def test_bench_sub_family_batch(benchmark):
    family = run_cold(benchmark, build_sub_vth_family)
    assert family.node_names() == ("90nm", "65nm", "45nm", "32nm")


@slow
def test_bench_sub_family_sequential(benchmark):
    family = run_cold(benchmark, reference.build_sub_vth_family)
    assert family.node_names() == ("90nm", "65nm", "45nm", "32nm")


def test_bench_multivth_menu_batch(benchmark):
    menu = run_cold(benchmark, derive_flavours, node_by_name("45nm"), 47.0)
    assert menu["lvt"].vth_mv() < menu["hvt"].vth_mv()


@slow
def test_bench_multivth_menu_sequential(benchmark):
    menu = run_cold(benchmark, reference.derive_flavours,
                    node_by_name("45nm"), 47.0)
    assert menu["lvt"].vth_mv() < menu["hvt"].vth_mv()


# -- tail-heavy length sweep ------------------------------------------------
#
# A wide gate-length sweep on one node: the short-channel lanes keep
# bisecting long after the long-channel lanes have converged, so by the
# late sweeps most of the stack is retired — exactly the regime the
# active-set compression in ``repro.numerics`` targets.  The paired
# sequential oracle records the before/after in BENCH_flows.json, and
# the batch bench stores the measured live-lane fraction as extra_info.

TAIL_LENGTHS_NM = np.geomspace(34.0, 90.0, 24)
TAIL_IOFF_A_PER_UM = 100e-12
TAIL_VDD_LEAK = 0.25


def _tail_node():
    return node_by_name("90nm")


def _tail_sweep_batch():
    return optimize_doping_stack(
        _tail_node(), TAIL_LENGTHS_NM, [(Polarity.NFET, 1.0)],
        HALO_RATIO_GRID, TAIL_IOFF_A_PER_UM, TAIL_VDD_LEAK,
        SS_TIE_TOLERANCE)


def _tail_sweep_sequential():
    return [reference.optimize_doping_for_length(
                _tail_node(), float(l), ioff_target=TAIL_IOFF_A_PER_UM,
                vdd_leak=TAIL_VDD_LEAK)
            for l in TAIL_LENGTHS_NM]


def test_bench_doping_sweep_tail_batch(benchmark):
    before = perf.snapshot()
    rows = run_cold(benchmark, _tail_sweep_batch)
    assert len(rows) == len(TAIL_LENGTHS_NM)
    moved = perf.delta(before)
    total = moved.get("numerics.total_lanes", 0)
    assert total > 0
    benchmark.extra_info["active_lane_fraction"] = round(
        moved.get("numerics.active_lanes", 0) / total, 4)


def test_bench_doping_sweep_tail_sequential(benchmark):
    seq = run_cold(benchmark, _tail_sweep_sequential)
    _cold()
    batch = _tail_sweep_batch()
    seq_n = np.array([d.profile.n_sub_cm3 for d in seq])
    batch_n = np.array([row[0].profile.n_sub_cm3 for row in batch])
    rel = float(np.max(np.abs(batch_n / seq_n - 1.0)))
    assert rel <= 1e-9
    benchmark.extra_info["max_rel_diff_vs_batch"] = rel


def test_bench_sensitivity_rebuild_batch(benchmark):
    result = run_cold(benchmark, headline_under_calibration,
                      sce_prefactor=2.2)
    assert result.snm_advantage > 0.0


@slow
def test_bench_sensitivity_rebuild_sequential(benchmark):
    result = run_cold(benchmark, reference.headline_under_calibration,
                      sce_prefactor=2.2)
    assert result.snm_advantage > 0.0
