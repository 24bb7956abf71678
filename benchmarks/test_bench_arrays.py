"""Benches: the compiled batched MNA engine at array scale.

The headline gate is the **tentpole speedup**: a 16-row SRAM column's
DC characterisation — 64 wordline stimulus points x 8 variation
corners, 512 lanes of a 35-unknown nodal system — must run >= 10x
faster *per lane* through the compiled batched engine than through
the looped scalar :class:`~repro.reference._nodal.NodalSolver` oracle
(:func:`repro.reference.solve_dc_batch`),
while agreeing to <= 1e-9 V on every node of the lanes both solved.
The oracle is timed on a lane subset (it is three decades slower; a
full 512-lane oracle run would dominate the suite), which is exactly
the per-lane comparison the gate is stated over.  Set
``REPRO_BENCH_QUICK=1`` (the CI quick mode) to shrink the oracle
subset and skip the speedup gate (equivalence is always asserted).
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import run_once

from repro import reference
from repro.circuit.mna_batch import solve_dc_batch
from repro.circuit.sram import SramCell
from repro.circuit.sram_array import build_column, min_write_pulse
from repro.device.mosfet import nfet, pfet
from repro.experiments import run_experiment

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: The gated workload: a 16-row column, 64 stimulus x 8 corners.
N_ROWS = 16
N_STIMULUS = 64
N_CORNERS = 8
VDD = 0.30

#: Per-lane batch-vs-looped-oracle wall-clock gate.
SPEEDUP_GATE = 10.0
#: Max |dV| over all nodes of the commonly solved lanes.
EQUIV_GATE_V = 1e-9

#: Oracle subset: every 16th stimulus x every 4th corner (8 lanes),
#: every 32nd x last-only (2 lanes) in quick mode.
ORACLE_STIM_STRIDE = 16
ORACLE_CORNER_STRIDE = 4


def _cell() -> SramCell:
    n = nfet(l_poly_nm=65, t_ox_nm=2.1, n_sub_cm3=1.2e18,
             n_p_halo_cm3=1.5e18)
    p = pfet(l_poly_nm=65, t_ox_nm=2.1, n_sub_cm3=1.2e18,
             n_p_halo_cm3=1.5e18, width_um=2.0)
    return SramCell(pulldown=n.with_width_um(2.0),
                    pullup=p.with_width_um(1.0),
                    access=n.with_width_um(1.0), vdd=VDD)


def _workload():
    column = build_column(_cell(), N_ROWS, stored=0)
    wl = np.linspace(0.0, VDD, N_STIMULUS).reshape(N_STIMULUS, 1)
    corners = np.linspace(-0.02, 0.02, N_CORNERS)
    return column, wl, corners


def test_bench_array_dc_batched(benchmark):
    """The 512-lane batched DC solve of the 16-row column alone."""
    column, wl, corners = _workload()

    result = run_once(
        benchmark, lambda: solve_dc_batch(
            column.circuit, stimulus={"wl0": wl}, dvth_n_v=corners,
            initial=column.seed()))
    lanes = N_STIMULUS * N_CORNERS
    benchmark.extra_info["lanes"] = lanes
    benchmark.extra_info["n_unknowns"] = len(
        column.circuit.unknown_nodes())
    assert result.batch_shape == (N_STIMULUS, N_CORNERS)


def test_bench_array_dc_speedup_vs_sequential(benchmark):
    """Tentpole gate: batched vs looped scalar-oracle DC, per lane.

    Times the composite (full batched solve + oracle subset); the
    per-lane speedup, the measured equivalence and the lane counts
    ride along in ``extra_info`` and into ``BENCH_arrays.json``.
    """
    column, wl, corners = _workload()
    stim_stride = 2 * ORACLE_STIM_STRIDE if QUICK else ORACLE_STIM_STRIDE
    corner_sel = (slice(-1, None) if QUICK
                  else slice(None, None, ORACLE_CORNER_STRIDE))
    facts: dict[str, float] = {}

    def composite():
        start = time.perf_counter()
        batch = solve_dc_batch(column.circuit, stimulus={"wl0": wl},
                               dvth_n_v=corners, initial=column.seed())
        t_batch = time.perf_counter() - start
        start = time.perf_counter()
        oracle = reference.solve_dc_batch(
            column.circuit, stimulus={"wl0": wl[::stim_stride]},
            dvth_n_v=corners[corner_sel], initial=column.seed())
        t_oracle = time.perf_counter() - start
        lanes_batch = N_STIMULUS * N_CORNERS
        lanes_oracle = int(np.prod(oracle.batch_shape))
        equiv = max(
            float(np.max(np.abs(
                batch[node][::stim_stride][:, corner_sel] - oracle[node])))
            for node in oracle.voltages)
        facts.update(
            t_batch_s=t_batch, t_oracle_s=t_oracle,
            lanes_batch=lanes_batch, lanes_oracle=lanes_oracle,
            per_lane_speedup=(t_oracle / lanes_oracle)
                             / (t_batch / lanes_batch),
            max_abs_dv=equiv,
        )
        return batch

    run_once(benchmark, composite)
    benchmark.extra_info.update(
        {k: (round(v, 6) if isinstance(v, float) and k != "max_abs_dv"
             else v)
         for k, v in facts.items()})
    assert facts["max_abs_dv"] <= EQUIV_GATE_V
    if not QUICK:
        assert facts["per_lane_speedup"] >= SPEEDUP_GATE


def test_bench_array_write_search(benchmark):
    """Binary-searched minimum write pulse, every probe one batched
    transient over the access corners."""
    cell = _cell()
    corners = np.array([-0.02, 0.0, 0.02])
    widths = run_once(
        benchmark, lambda: min_write_pulse(cell, 4, dvth_n_v=corners,
                                           n_probes=5, n_steps=48))
    benchmark.extra_info["pulse_widths_s"] = [float(w) for w in widths]
    assert np.all(np.isfinite(widths))
    assert np.all(np.diff(widths) >= 0.0)


def test_bench_ext_array(benchmark):
    """The provenance-tracked ext_array experiment end to end."""
    result = run_once(benchmark, run_experiment, "ext_array")
    assert result.all_hold()
    per_cell = result.get_series("per-cell bitline leakage, sub-vth")
    assert np.all(np.diff(per_cell.y) < 0.0)
