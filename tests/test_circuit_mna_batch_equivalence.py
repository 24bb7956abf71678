"""Batch-vs-reference equivalence of the compiled batched MNA engine.

RPR004 coverage: the batched nodal engine and its array workloads —
``solve_dc_batch``, ``solve_transient_batch``,
``bitline_leakage_vs_height``, ``loaded_read_snm``,
``read_snm_vs_height``, ``write_trip_voltage``, ``min_write_pulse``,
``gate_leakage`` and ``gate_delay`` — are pinned here against their
:mod:`repro.reference` twins on the scalar
:class:`~repro.reference._nodal.NodalSolver` at <= 1e-9 V (the engines
share nothing past the netlist).  Circuits are kept tiny: the
reference is three decades slower per lane.
"""

import numpy as np
import pytest

from repro import reference
from repro.circuit.gate_netlists import (gate_delay, gate_leakage,
                                         nand2_netlist, nor2_netlist)
from repro.circuit.mna_batch import solve_dc_batch, solve_transient_batch
from repro.circuit.netlist import Circuit
from repro.circuit.sram import SramCell
from repro.circuit.sram_array import (bitline_leakage_vs_height,
                                      loaded_read_snm, min_write_pulse,
                                      read_snm_vs_height, write_trip_voltage)

VDD = 0.25
TOL_V = 1e-9


@pytest.fixture(scope="module")
def cell(nfet90, pfet90):
    return SramCell(pulldown=nfet90.with_width_um(2.0),
                    pullup=pfet90.with_width_um(1.0),
                    access=nfet90.with_width_um(1.0), vdd=VDD)


def _inverter(nfet90, pfet90) -> Circuit:
    c = Circuit()
    c.add_vsource("vdd", "vdd", VDD)
    c.add_vsource("vin", "in", 0.0)
    c.add_inverter("i1", "in", "out", "vdd", nfet90, pfet90)
    return c


def _max_dv(batch, seq) -> float:
    return max(float(np.max(np.abs(batch[node] - seq[node])))
               for node in seq.voltages)


class TestDcEquivalence:
    def test_inverter_sweep_with_corners(self, nfet90, pfet90):
        c = _inverter(nfet90, pfet90)
        vins = np.linspace(0.0, VDD, 5).reshape(5, 1)
        corners = np.array([-0.01, 0.01])
        kwargs = dict(stimulus={"vin": vins}, dvth_n_v=corners,
                      dvth_p_v=0.005)
        batch = solve_dc_batch(c, **kwargs)
        seq = reference.solve_dc_batch(c, **kwargs)
        assert batch.batch_shape == (5, 2)
        assert _max_dv(batch, seq) <= TOL_V

    def test_source_currents_match(self, nfet90, pfet90):
        c = _inverter(nfet90, pfet90)
        vins = np.linspace(0.0, VDD, 4)
        batch = solve_dc_batch(c, stimulus={"vin": vins})
        seq = reference.solve_dc_batch(c, stimulus={"vin": vins})
        for name in ("vdd", "vin"):
            assert np.max(np.abs(batch.source_currents_a[name]
                                 - seq.source_currents_a[name])) <= 1e-15

    def test_bistable_seeds_pick_same_basins(self, nfet90, pfet90):
        c = Circuit()
        c.add_vsource("vdd", "vdd", VDD)
        c.add_inverter("i1", "q", "qb", "vdd", nfet90, pfet90)
        c.add_inverter("i2", "qb", "q", "vdd", nfet90, pfet90)
        seeds = {"q": np.array([0.0, VDD]), "qb": np.array([VDD, 0.0])}
        batch = solve_dc_batch(c, initial=seeds)
        seq = reference.solve_dc_batch(c, initial=seeds)
        assert batch["q"][0] < 0.05 * VDD < 0.95 * VDD < batch["q"][1]
        assert _max_dv(batch, seq) <= TOL_V


class TestTransientEquivalence:
    def test_inverter_fall_crossings(self, nfet90, pfet90):
        c = _inverter(nfet90, pfet90)
        c.add_capacitor("cl", "out", "0", 2e-15)
        corners = np.array([-0.01, 0.0, 0.01])

        def step(t: float) -> float:
            return VDD if t >= 1e-9 else 0.0

        kwargs = dict(stimulus={"vin": step}, dvth_n_v=corners)
        batch = solve_transient_batch(c, 4e-7, 2e-9, **kwargs)
        seq = reference.solve_transient_batch(c, 4e-7, 2e-9, **kwargs)
        t_b = batch.crossing_times("out", VDD / 2, rising=False)
        t_s = seq.crossing_times("out", VDD / 2, rising=False)
        assert np.all(np.isfinite(t_b))
        assert np.max(np.abs(t_b - t_s) / t_s) <= 1e-6
        assert np.max(np.abs(batch.voltages["out"][-1]
                             - seq.voltages["out"][-1])) <= TOL_V

    def test_at_interpolation_matches(self, nfet90, pfet90):
        c = Circuit()
        c.add_vsource("vs", "a", 1.0)
        c.add_resistor("r1", "a", "b", 1e6)
        c.add_capacitor("c1", "b", "0", 1e-12)
        kwargs = dict(initial={"b": 0.0}, use_initial_conditions=True)
        batch = solve_transient_batch(c, 3e-6, 2e-8, **kwargs)
        seq = reference.solve_transient_batch(c, 3e-6, 2e-8, **kwargs)
        for t_probe in (5e-7, 1e-6, 2.5e-6):
            assert batch.at("b", t_probe) == pytest.approx(
                float(seq.at("b", t_probe)), abs=TOL_V)


class TestColumnEquivalence:
    def test_bitline_leakage_vs_height(self, cell):
        corners = np.array([-0.01, 0.01])
        batch = bitline_leakage_vs_height(cell, (2, 3), dvth_n_v=corners)
        seq = reference.bitline_leakage_vs_height(cell, (2, 3),
                                                  dvth_n_v=corners)
        assert np.max(np.abs(batch.v_bl - seq.v_bl)) <= TOL_V
        assert np.max(np.abs(batch.i_bl_a - seq.i_bl_a)
                      / seq.i_bl_a) <= 1e-6

    def test_loaded_read_snm(self, cell):
        batch = loaded_read_snm(cell, 2, n_points=9)
        seq = reference.loaded_read_snm(cell, 2, n_points=9)
        assert batch == pytest.approx(seq, abs=TOL_V)

    def test_read_snm_vs_height_is_batch_path(self, cell):
        heights, snm, pinned = read_snm_vs_height(cell, (2,), n_points=9)
        assert heights.tolist() == [2]
        assert snm[0] == pytest.approx(loaded_read_snm(cell, 2,
                                                       n_points=9),
                                       abs=1e-12)
        assert 0.0 < pinned < snm[0]

    def test_write_trip_voltage(self, cell):
        batch = write_trip_voltage(cell, 2, ramp_taus=20.0, n_steps=60)
        seq = reference.write_trip_voltage(cell, 2, ramp_taus=20.0,
                                           n_steps=60)
        assert np.isfinite(batch).all()
        assert np.max(np.abs(batch - seq)) <= 1e-6 * VDD

    def test_min_write_pulse(self, cell):
        batch = min_write_pulse(cell, 2, n_probes=3, n_steps=24)
        seq = reference.min_write_pulse(cell, 2, n_probes=3, n_steps=24)
        assert np.isfinite(batch).all()
        # The searches bisect identical brackets, so agreeing solves
        # land on identical widths.
        assert batch == pytest.approx(seq, rel=1e-9)


class TestGateEquivalence:
    def test_gate_leakage_truth_table(self, nfet90, pfet90):
        for build in (nand2_netlist, nor2_netlist):
            gate = build(nfet90, pfet90, VDD)
            a = np.array([0.0, 0.0, VDD, VDD])
            b = np.array([0.0, VDD, 0.0, VDD])
            batch = gate_leakage(gate, {"a": a, "b": b})
            seq = reference.gate_leakage(gate, {"a": a, "b": b})
            assert np.max(np.abs(batch - seq) / np.abs(seq)) <= 1e-6

    def test_gate_delay(self, nfet90, pfet90):
        gate = nand2_netlist(nfet90, pfet90, VDD)
        batch = gate_delay(gate, "b", held={"a": VDD}, n_steps=48)
        seq = reference.gate_delay(gate, "b", held={"a": VDD}, n_steps=48)
        assert np.isfinite(batch)
        assert batch == pytest.approx(float(seq), rel=1e-6)

    def test_rejects_unknown_solver(self, nfet90, pfet90):
        # The solver= switch is gone: the reference twin is the only
        # other path.
        gate = nand2_netlist(nfet90, pfet90, VDD)
        with pytest.raises(TypeError):
            gate_leakage(gate, solver="sequential")
