"""Tests for the nodal DC/transient solver."""

import numpy as np
import pytest

from repro.circuit import Inverter
from repro.circuit.mna_batch import solve_dc_batch
from repro.circuit.netlist import Circuit
from repro.errors import ParameterError
from repro.reference._nodal import NodalSolver

VDD = 0.25


def inverter_circuit(nfet90, pfet90, vin: float, vdd: float = VDD) -> Circuit:
    c = Circuit()
    c.add_vsource("vdd", "vdd", vdd)
    c.add_vsource("vin", "in", vin)
    c.add_inverter("inv1", "in", "out", "vdd", nfet90, pfet90)
    return c


class TestDcLinear:
    def test_resistor_divider(self):
        c = Circuit()
        c.add_vsource("vs", "top", 1.0)
        c.add_resistor("r1", "top", "mid", 1e3)
        c.add_resistor("r2", "mid", "0", 3e3)
        result = NodalSolver(c).solve_dc()
        assert result["mid"] == pytest.approx(0.75, abs=1e-6)

    def test_three_node_ladder(self):
        c = Circuit()
        c.add_vsource("vs", "a", 2.0)
        c.add_resistor("r1", "a", "b", 1e3)
        c.add_resistor("r2", "b", "c", 1e3)
        c.add_resistor("r3", "c", "0", 2e3)
        result = NodalSolver(c).solve_dc()
        assert result["b"] == pytest.approx(1.5, abs=1e-6)
        assert result["c"] == pytest.approx(1.0, abs=1e-6)


class TestDcInverter:
    @pytest.mark.parametrize("vin", [0.0, 0.08, 0.125, 0.18, 0.25])
    def test_matches_specialized_solver(self, nfet90, pfet90, vin):
        circuit = inverter_circuit(nfet90, pfet90, vin)
        mna = NodalSolver(circuit).solve_dc()
        reference = Inverter(nfet90, pfet90, VDD).vtc_point(vin)
        assert mna["out"] == pytest.approx(reference, abs=1e-4)

    def test_batched_engine_matches_specialized_solver(self, nfet90,
                                                       pfet90):
        """The production MNA engine reproduces the specialised VTC
        solver over a V_in sweep, one lane per input."""
        vins = np.linspace(0.0, VDD, 11)
        result = solve_dc_batch(inverter_circuit(nfet90, pfet90, 0.0),
                                stimulus={"vin": vins})
        inverter = Inverter(nfet90, pfet90, VDD)
        expected = [inverter.vtc_point(float(v)) for v in vins]
        assert result["out"] == pytest.approx(expected, abs=1e-4)

    def test_two_stage_buffer(self, nfet90, pfet90):
        c = Circuit()
        c.add_vsource("vdd", "vdd", VDD)
        c.add_vsource("vin", "in", 0.0)
        c.add_inverter("i1", "in", "mid", "vdd", nfet90, pfet90)
        c.add_inverter("i2", "mid", "out", "vdd", nfet90, pfet90)
        result = NodalSolver(c).solve_dc()
        assert result["mid"] > 0.9 * VDD
        assert result["out"] < 0.1 * VDD


class TestBistability:
    def test_sram_latch_two_states(self, nfet90, pfet90):
        c = Circuit()
        c.add_vsource("vdd", "vdd", VDD)
        c.add_inverter("i1", "q", "qb", "vdd", nfet90, pfet90)
        c.add_inverter("i2", "qb", "q", "vdd", nfet90, pfet90)
        solver = NodalSolver(c)
        st0 = solver.solve_dc(initial={"q": 0.0, "qb": VDD})
        st1 = solver.solve_dc(initial={"q": VDD, "qb": 0.0})
        assert st0["q"] < 0.05 * VDD and st0["qb"] > 0.95 * VDD
        assert st1["q"] > 0.95 * VDD and st1["qb"] < 0.05 * VDD


class TestTransient:
    def test_rc_charging_matches_analytic(self):
        c = Circuit()
        c.add_vsource("vs", "a", 1.0)
        c.add_resistor("r1", "a", "b", 1e6)
        c.add_capacitor("c1", "b", "0", 1e-12)
        result = NodalSolver(c).solve_transient(
            5e-6, 2e-8, initial={"b": 0.0}, use_initial_conditions=True)
        tau = 1e-6
        for t_probe in (0.5 * tau, tau, 2.0 * tau):
            expected = 1.0 - np.exp(-t_probe / tau)
            assert result.at("b", t_probe) == pytest.approx(expected,
                                                            abs=0.02)

    def test_inverter_switching_delay_close_to_ode_engine(self, nfet90,
                                                          pfet90):
        from repro.circuit.transient import switch_event
        inv = Inverter(nfet90, pfet90, VDD)
        c_load = 2e-15
        reference = switch_event(inv, c_load, falling=True).delay_s

        c = Circuit()
        c.add_vsource("vdd", "vdd", VDD)
        c.add_vsource("vin", "in", VDD)     # input already stepped high
        c.add_inverter("i1", "in", "out", "vdd", nfet90, pfet90)
        c.add_capacitor("cl", "out", "0", c_load)
        result = NodalSolver(c).solve_transient(
            10.0 * reference, reference / 10.0,
            initial={"out": VDD}, use_initial_conditions=True)
        crossing = result.crossing_time("out", VDD / 2.0, rising=False)
        assert crossing == pytest.approx(reference, rel=0.15)

    def test_ring_oscillator_oscillates(self, nfet90, pfet90):
        c = Circuit()
        c.add_vsource("vdd", "vdd", VDD)
        nodes = ["n1", "n2", "n3"]
        for i in range(3):
            c.add_inverter(f"i{i}", nodes[i], nodes[(i + 1) % 3], "vdd",
                           nfet90, pfet90)
            c.add_capacitor(f"cl{i}", nodes[(i + 1) % 3], "0", 2e-15)
        result = NodalSolver(c).solve_transient(
            4e-7, 2e-9, initial={"n1": 0.0, "n2": VDD, "n3": 0.0},
            use_initial_conditions=True)
        wave = result.voltages["n1"]
        above = wave >= VDD / 2.0
        rising_edges = int(np.sum(~above[:-1] & above[1:]))
        assert rising_edges >= 3

    def test_crossing_time_validation(self):
        c = Circuit()
        c.add_vsource("vs", "a", 1.0)
        c.add_resistor("r1", "a", "b", 1e3)
        c.add_capacitor("c1", "b", "0", 1e-15)
        result = NodalSolver(c).solve_transient(1e-10, 1e-12)
        with pytest.raises(ParameterError):
            result.crossing_time("b", 5.0)

    def test_rejects_bad_horizon(self, nfet90, pfet90):
        c = inverter_circuit(nfet90, pfet90, 0.0)
        with pytest.raises(ParameterError):
            NodalSolver(c).solve_transient(0.0, 1e-9)


class TestCrossingTimeEdges:
    """Edge semantics of :meth:`TransientResult.crossing_time`."""

    @staticmethod
    def _result(values):
        from repro.reference._nodal import TransientResult
        wave = np.asarray(values, dtype=float)
        return TransientResult(time_s=np.arange(wave.size, dtype=float),
                               voltages={"n": wave})

    def test_never_crossed_raises(self):
        result = self._result([0.0, 0.1, 0.2])
        with pytest.raises(ParameterError):
            result.crossing_time("n", 0.5)

    def test_constant_exactly_at_level_raises(self):
        result = self._result([0.5, 0.5, 0.5])
        with pytest.raises(ParameterError):
            result.crossing_time("n", 0.5)

    def test_starts_at_level_departing_up_is_t0(self):
        result = self._result([0.5, 0.8, 0.9])
        assert result.crossing_time("n", 0.5) == 0.0
        assert result.crossing_time("n", 0.5, rising=True) == 0.0

    def test_starts_at_level_wrong_direction_finds_later_crossing(self):
        # Departs upward, so the *falling* crossing is the later 0.8->0.2
        # segment, not t = 0.
        result = self._result([0.5, 0.8, 0.2])
        t_fall = result.crossing_time("n", 0.5, rising=False)
        assert t_fall == pytest.approx(1.5)

    def test_flat_start_at_level_still_t0(self):
        # A plateau exactly at the level, then departure: the plateau's
        # start is the crossing.
        result = self._result([0.5, 0.5, 0.9])
        assert result.crossing_time("n", 0.5, rising=True) == 0.0

    def test_non_monotonic_takes_first_matching_crossing(self):
        result = self._result([0.0, 0.8, 0.1, 0.9])
        t_rise = result.crossing_time("n", 0.5, rising=True)
        t_fall = result.crossing_time("n", 0.5, rising=False)
        t_any = result.crossing_time("n", 0.5)
        assert t_rise == pytest.approx(0.625)
        assert t_fall == pytest.approx(1.0 + 0.3 / 0.7)
        assert t_any == t_rise
        # The second rising crossing (0.1 -> 0.9) is not the answer.
        assert t_rise < 2.0
