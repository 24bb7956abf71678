"""Property-based tests for the nodal solver and serialization layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.compile import compile_circuit
from repro.circuit.mna_batch import _assemble, solve_dc_batch
from repro.circuit.netlist import Circuit
from repro.device import nfet, pfet
from repro.io import device_from_dict, device_to_dict
from repro.reference._nodal import NodalSolver

resistances = st.floats(min_value=10.0, max_value=1e7)


class TestMnaLinearProperties:
    @settings(max_examples=25, deadline=None)
    @given(r_values=st.lists(resistances, min_size=2, max_size=6),
           v_src=st.floats(min_value=0.1, max_value=5.0))
    def test_ladder_matches_linear_algebra(self, r_values, v_src):
        """A resistor ladder solved by MNA equals the series-divider
        closed form."""
        c = Circuit()
        c.add_vsource("vs", "n0", v_src)
        for i, r in enumerate(r_values):
            bottom = "0" if i == len(r_values) - 1 else f"n{i + 1}"
            c.add_resistor(f"r{i}", f"n{i}", bottom, r)
        result = NodalSolver(c).solve_dc()
        total = sum(r_values)
        below = total
        for i, r in enumerate(r_values[:-1]):
            below -= r
            expected = v_src * below / total
            assert result[f"n{i + 1}"] == pytest.approx(expected, rel=1e-5,
                                                        abs=1e-8)

    @settings(max_examples=15, deadline=None)
    @given(r1=resistances, r2=resistances,
           v_src=st.floats(min_value=0.1, max_value=3.0))
    def test_superposition_with_parallel_branches(self, r1, r2, v_src):
        """Two parallel resistors to ground: the node follows the
        divider with the parallel combination."""
        c = Circuit()
        c.add_vsource("vs", "a", v_src)
        c.add_resistor("rs", "a", "mid", 1e3)
        c.add_resistor("r1", "mid", "0", r1)
        c.add_resistor("r2", "mid", "0", r2)
        result = NodalSolver(c).solve_dc()
        r_par = r1 * r2 / (r1 + r2)
        expected = v_src * r_par / (1e3 + r_par)
        assert result["mid"] == pytest.approx(expected, rel=1e-5, abs=1e-9)


class TestInsertionOrderInvariance:
    """Canonical compilation: element insertion order is irrelevant.

    The compiler sorts elements by name before stamping, so two
    circuits with identical elements added in any order lower to
    bitwise-identical stamp matrices — and the batched DC solve is
    bitwise-reproducible across orders, not merely close.
    """

    @staticmethod
    def _latch_elements(device):
        vdd = 0.25
        return vdd, [
            ("vsource", "vdd", ("vdd", vdd)),
            ("vsource", "vwl", ("wl", 0.0)),
            ("resistor", "rk", ("vdd", "bl", 1e7)),
            ("mosfet", "m1", ("q", "qb", "0", device)),
            ("mosfet", "m2", ("qb", "q", "0", device)),
            ("mosfet", "max", ("bl", "wl", "q", device)),
            ("resistor", "r1", ("vdd", "q", 5e7)),
            ("resistor", "r2", ("vdd", "qb", 5e7)),
            ("capacitor", "cq", ("q", "0", 1e-15)),
        ]

    @staticmethod
    def _build(elements):
        c = Circuit()
        adders = {"vsource": c.add_vsource, "resistor": c.add_resistor,
                  "capacitor": c.add_capacitor, "mosfet": c.add_mosfet}
        for kind, name, args in elements:
            adders[kind](name, *args)
        return c

    @settings(max_examples=10, deadline=None)
    @given(order=st.permutations(range(9)))
    def test_permuted_build_is_bitwise_identical(self, order):
        device = nfet(65, 2.1, 1.2e18, 1.5e18)
        vdd, elements = self._latch_elements(device)
        reference = compile_circuit(self._build(elements))
        permuted = compile_circuit(
            self._build([elements[i] for i in order]))
        assert permuted.unknowns == reference.unknowns
        assert permuted.fixed == reference.fixed
        assert np.array_equal(permuted.g_linear, reference.g_linear)
        assert np.array_equal(permuted.c_linear, reference.c_linear)
        assert len(permuted.groups) == len(reference.groups)
        for got, want in zip(permuted.groups, reference.groups):
            assert got.names == want.names
            assert np.array_equal(got.drain_full, want.drain_full)
            assert np.array_equal(got.gate_full, want.gate_full)
            assert np.array_equal(got.source_full, want.source_full)
        seeds = {"q": 0.0, "qb": vdd}
        base = solve_dc_batch(self._build(elements),
                              stimulus={"vwl": np.array([0.0, vdd])},
                              initial=seeds)
        swapped = solve_dc_batch(self._build([elements[i] for i in order]),
                                 stimulus={"vwl": np.array([0.0, vdd])},
                                 initial=seeds)
        for node in base.voltages:
            assert np.array_equal(base[node], swapped[node])


class TestAnalyticJacobian:
    """The assembled Jacobian is the derivative of the assembled KCL.

    A cross-coupled latch with an access device and a capacitor: node
    voltages are drawn over (and beyond) the rails so every transistor
    conducts in both orientations across the lanes, and the analytic
    kernel partials, mapped through the drain/source swap and scattered
    by cell, must match central differences of the residual rows.
    """

    @staticmethod
    def _latch():
        n = nfet(65, 2.1, 1.2e18, 1.5e18)
        p = pfet(65, 2.1, 1.2e18, 1.5e18, width_um=2.0)
        c = Circuit()
        c.add_vsource("vdd", "vdd", 0.3)
        c.add_vsource("vwl", "wl", 0.3)
        c.add_inverter("i1", "q", "qb", "vdd", n, p)
        c.add_inverter("i2", "qb", "q", "vdd", n, p)
        c.add_mosfet("max", "bl", "wl", "q", n)
        c.add_resistor("rk", "vdd", "bl", 1e7)
        c.add_capacitor("cq", "q", "0", 1e-15)
        return compile_circuit(c)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           shift=st.floats(min_value=-0.05, max_value=0.05),
           transient=st.booleans())
    def test_matches_central_differences(self, seed, shift, transient):
        compiled = self._latch()
        n = compiled.n_unknown
        lanes = 16
        rng = np.random.default_rng(seed)
        x = rng.uniform(-0.1, 0.4, size=(n, lanes))
        fixed = np.repeat(compiled.fixed_base(0.0)[:, None], lanes, axis=1)
        shifts = rng.uniform(-0.05, 0.05, size=lanes)
        prev = (np.concatenate([rng.uniform(0.0, 0.3, size=(n, lanes)),
                                fixed]) if transient else None)
        inv_dt = 1e10 if transient else None

        def residual(xv):
            f, _ = _assemble(compiled, xv, fixed, shifts, shift, 0.0, prev,
                             inv_dt)
            return f[:n]

        _, jac = _assemble(compiled, x, fixed, shifts, shift, 0.0, prev,
                           inv_dt)
        h = 1e-6
        for col in range(n):
            step = np.zeros((n, 1))
            step[col] = h
            fd = (residual(x + step) - residual(x - step)) / (2.0 * h)
            scale = np.abs(jac[:, :, col]).max(axis=1)
            assert np.all(np.abs(jac[:, :, col] - fd.T)
                          <= 1e-6 * scale[:, None] + 1e-15)


class TestDeviceSerializationProperties:
    @settings(max_examples=15, deadline=None)
    @given(l_poly=st.floats(min_value=20.0, max_value=120.0),
           t_ox=st.floats(min_value=1.2, max_value=3.0),
           n_sub=st.floats(min_value=5e17, max_value=4e18),
           halo=st.floats(min_value=0.0, max_value=8e18))
    def test_round_trip_preserves_metrics(self, l_poly, t_ox, n_sub, halo):
        device = nfet(l_poly, t_ox, n_sub, halo)
        clone = device_from_dict(device_to_dict(device))
        assert clone.ss_v_per_dec == pytest.approx(device.ss_v_per_dec)
        assert clone.i_off(1.0) == pytest.approx(device.i_off(1.0))
        assert clone.capacitance.c_gate == pytest.approx(
            device.capacitance.c_gate)


class TestIvVectorisationProperties:
    @settings(max_examples=15, deadline=None)
    @given(vgs=st.floats(min_value=0.0, max_value=1.2),
           vds=st.floats(min_value=0.0, max_value=1.2))
    def test_scalar_equals_vector_element(self, vgs, vds):
        device = nfet(65, 2.1, 1.2e18, 1.5e18)
        scalar = device.ids(vgs, vds)
        vector = device.iv.ids(np.array([vgs, vgs]), np.array([vds, vds]))
        assert scalar == pytest.approx(float(vector[0]), rel=1e-12,
                                       abs=1e-30)
        assert float(vector[0]) == float(vector[1])
