"""Benches: the vectorised circuit-evaluation layer.

Batched VTC/SNM extraction and array-native Monte Carlo, each paired
with its sequential twin from :mod:`repro.reference` so
``BENCH_circuits.json`` records the before/after of the vectorisation.
The sequential Monte Carlo oracles are the slow half; set
``REPRO_BENCH_QUICK=1`` (the CI quick mode) to skip them.
"""

import os

import numpy as np
import pytest
from conftest import run_once, run_rounds

from repro import perf, reference
from repro.circuit import Inverter, butterfly_snm, find_vmin, noise_margins
from repro.circuit.chain import InverterChain
from repro.circuit.dvs import (chain_rate_hz, vdd_for_throughput,
                               vdd_for_throughput_batch)
from repro.device import nfet, pfet
from repro.device.corners import Corner, at_corner, corner_grid
from repro.scaling.roadmap import node_by_name
from repro.service.exact import exact_design, snm_mv_lanes
from repro.variability import delay_distribution, snm_distribution

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
slow = pytest.mark.skipif(
    QUICK, reason="sequential oracle skipped in quick mode")


def _build_inverter(vdd=0.25):
    return Inverter(
        nfet=nfet(l_poly_nm=65, t_ox_nm=2.1, n_sub_cm3=1.2e18,
                  n_p_halo_cm3=1.5e18),
        pfet=pfet(l_poly_nm=65, t_ox_nm=2.1, n_sub_cm3=1.2e18,
                  n_p_halo_cm3=1.5e18, width_um=2.0),
        vdd=vdd,
    )


def test_bench_vtc_batch(benchmark):
    inv = _build_inverter()
    vins, vouts = run_rounds(benchmark, inv.vtc, 121)
    assert vouts[0] > vouts[-1]


def test_bench_vtc_sequential(benchmark):
    inv = _build_inverter()
    ref = reference.Inverter(inv.nfet, inv.pfet, inv.vdd)
    vins, vouts = run_rounds(benchmark, ref.vtc, 121)
    assert vouts[0] > vouts[-1]


def test_bench_snm_batch(benchmark):
    inv = _build_inverter()
    nm = run_rounds(benchmark, noise_margins, inv)
    assert nm.snm > 0.0


def test_bench_snm_sequential(benchmark):
    inv = _build_inverter()
    nm = run_rounds(benchmark, reference.noise_margins, inv)
    assert nm.snm > 0.0


def test_bench_snm_mc100_batch(benchmark):
    inv = _build_inverter()
    mc = run_rounds(benchmark, snm_distribution, inv, 100)
    assert mc.mean > 0.0


@slow
def test_bench_snm_mc100_sequential(benchmark):
    inv = _build_inverter()
    mc = run_once(benchmark, reference.snm_distribution, inv, 100)
    assert mc.mean > 0.0


def test_bench_delay_mc200_batch(benchmark):
    inv = _build_inverter()
    mc = run_once(benchmark, delay_distribution, inv, 200)
    assert mc.mean > 0.0


@slow
def test_bench_delay_mc200_sequential(benchmark):
    inv = _build_inverter()
    mc = run_once(benchmark, reference.delay_distribution, inv, 200)
    assert mc.mean > 0.0


# -- one design-grid shard of SNMs ------------------------------------------
#
# What ``fill_shard`` extracts for one (node, L_poly) shard: the SNM of
# 4 leakage targets x 5 supplies = 20 distinct inverters (the 32nm node
# at 1.1x its etched length).  The batch stacks all 20 designs into one
# noise-margin extraction; the sequential twin makes one call per
# design, as the grid did before designs could share a batch.  Both
# give the same bits.

SHARD_LOG10_IOFF = (-9.576923, -9.384615, -9.192308, -9.0)
SHARD_VDD_V = (0.34, 0.36, 0.38, 0.40, 0.42)


@pytest.fixture(scope="module")
def shard_inverters():
    node = node_by_name("32nm")
    designs = [exact_design(node, 1.1 * node.l_poly_nm, 10.0 ** t)
               for t in SHARD_LOG10_IOFF]
    return [d.inverter(v) for d in designs for v in SHARD_VDD_V]


def _snm_one_by_one(inverters):
    return np.array([snm_mv_lanes([inv])[0] for inv in inverters])


def test_bench_snm_shard_batch(benchmark, shard_inverters):
    snm = run_rounds(benchmark, snm_mv_lanes, shard_inverters)
    assert np.array_equal(snm, _snm_one_by_one(shard_inverters),
                          equal_nan=True)


def test_bench_snm_shard_sequential(benchmark, shard_inverters):
    snm = run_rounds(benchmark, _snm_one_by_one, shard_inverters)
    assert np.array_equal(snm, snm_mv_lanes(shard_inverters),
                          equal_nan=True)
    assert np.all(snm > 0.0)


# -- tail-heavy DVS supply solve --------------------------------------------
#
# A skewed throughput grid: most lanes are already met at the bottom of
# the supply range and retire before the first sweep, while a geometric
# tail climbs towards the chain's maximum rate and bisects to full
# depth.  The gathered solver only ever evaluates the live tail; the
# paired sequential oracle records the before/after, and the batched
# result is bitwise-identical to the scalar one (both walk the same
# bracket sequence and return its hi end).


def _dvs_chain():
    return InverterChain(_build_inverter(vdd=0.3))


def _tail_targets(chain):
    f_lo = chain_rate_hz(chain, 0.10)
    f_hi = chain_rate_hz(chain, 1.2)
    return np.concatenate([
        np.full(96, 0.5 * f_lo),
        f_lo * np.geomspace(1.5, 0.9 * f_hi / f_lo, 32),
    ])


def test_bench_dvs_tail_batch(benchmark):
    chain = _dvs_chain()
    targets = _tail_targets(chain)
    before = perf.snapshot()
    vdds = run_once(benchmark, vdd_for_throughput_batch, chain, targets)
    assert vdds.shape == targets.shape
    moved = perf.delta(before)
    total = moved.get("numerics.total_lanes", 0)
    assert total > 0
    benchmark.extra_info["active_lane_fraction"] = round(
        moved.get("numerics.active_lanes", 0) / total, 4)


def test_bench_dvs_tail_sequential(benchmark):
    chain = _dvs_chain()
    targets = _tail_targets(chain)

    def sweep():
        return np.array([vdd_for_throughput(chain, float(f))
                         for f in targets])

    seq = run_once(benchmark, sweep)
    batch = vdd_for_throughput_batch(chain, targets)
    assert np.array_equal(batch, seq)
    benchmark.extra_info["max_abs_diff_vs_batch"] = float(
        np.max(np.abs(batch - seq)))


# -- skewed-corner device stack ---------------------------------------------
#
# One ParameterStack metrics pass over a gate-length sweep crossed with
# the FF/TT/SS corner set, against the per-device ``at_corner`` loop it
# replaced in the corner experiments.

CORNER_LENGTHS_NM = np.linspace(38.0, 60.0, 12)
ALL_CORNERS = (Corner.FF, Corner.TT, Corner.SS)


def _corner_devices():
    return [nfet(l_poly_nm=float(l), t_ox_nm=1.7, n_sub_cm3=2.4e18,
                 n_p_halo_cm3=1.4e18) for l in CORNER_LENGTHS_NM]


def test_bench_corner_stack_batch(benchmark):
    devices = _corner_devices()

    def sweep():
        return corner_grid(devices, ALL_CORNERS).i_on_per_um(0.25)

    ion = run_once(benchmark, sweep)
    assert ion.shape == (len(devices) * len(ALL_CORNERS),)


def test_bench_corner_stack_sequential(benchmark):
    devices = _corner_devices()

    def sweep():
        return np.array([at_corner(d, c).i_on_per_um(0.25)
                         for d in devices for c in ALL_CORNERS])

    seq = run_once(benchmark, sweep)
    batch = corner_grid(devices, ALL_CORNERS).i_on_per_um(0.25)
    rel = float(np.max(np.abs(batch / seq - 1.0)))
    assert rel <= 1e-9
    benchmark.extra_info["max_rel_diff_vs_batch"] = rel


# -- one VTC balance evaluation ---------------------------------------------
#
# The current balance the batched bisection evaluates once per sweep, at
# the two lane counts that matter: <= 260 lanes is every call the design
# grid (and the service's exact tier) makes, ~4160 is the tail of the
# yield engine's calls.  One balance call is ~0.05-0.3 ms, so these time
# many rounds and report the per-call mean.


def _balance_bench(benchmark, lanes):
    from repro.circuit.batch import _VtcSystem
    inv = _build_inverter()
    rng = np.random.default_rng(lanes)
    system = _VtcSystem(inv, rng.uniform(0.0, inv.vdd, lanes),
                        rng.normal(0.0, 0.03, lanes),
                        rng.normal(0.0, 0.03, lanes))
    vout = rng.uniform(0.0, inv.vdd, lanes)
    idx = np.arange(lanes)
    balance = benchmark.pedantic(system.balance, args=(vout, idx),
                                 rounds=200, iterations=5, warmup_rounds=20)
    assert balance.shape == (lanes,)
    assert np.array_equal(balance, system.balance(vout)[idx])


def test_bench_vtc_balance_260(benchmark):
    _balance_bench(benchmark, 260)


def test_bench_vtc_balance_4160(benchmark):
    _balance_bench(benchmark, 4160)


def test_bench_butterfly_batch(benchmark):
    inv = _build_inverter()
    vtc = inv.vtc(161)
    snm = run_once(benchmark, butterfly_snm, vtc)
    assert snm > 0.0


def test_bench_vmin_batch(benchmark):
    inv = _build_inverter(vdd=0.3)
    result = run_once(benchmark, find_vmin, inv)
    assert 0.08 < result.vmin < 0.7
