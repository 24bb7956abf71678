"""Tests for chain energy and the V_min search."""

import numpy as np
import pytest

from repro.circuit.energy import chain_energy_per_cycle, find_vmin
from repro.errors import ParameterError, VminBoundaryError


class TestChainEnergy:
    def test_components_positive(self, inverter_sub):
        e = chain_energy_per_cycle(inverter_sub)
        assert e.dynamic_j > 0.0
        assert e.leakage_j > 0.0
        assert e.total_j == pytest.approx(e.dynamic_j + e.leakage_j)

    def test_dynamic_linear_in_stages(self, inverter_sub):
        e10 = chain_energy_per_cycle(inverter_sub, n_stages=10)
        e20 = chain_energy_per_cycle(inverter_sub, n_stages=20)
        assert e20.dynamic_j == pytest.approx(2.0 * e10.dynamic_j)

    def test_leakage_quadratic_in_stages(self, inverter_sub):
        # Leakage integrates over the chain's own critical path, so it
        # grows as N^2.
        e10 = chain_energy_per_cycle(inverter_sub, n_stages=10)
        e20 = chain_energy_per_cycle(inverter_sub, n_stages=20)
        assert e20.leakage_j == pytest.approx(4.0 * e10.leakage_j, rel=1e-6)

    def test_dynamic_linear_in_activity(self, inverter_sub):
        lo = chain_energy_per_cycle(inverter_sub, activity=0.05)
        hi = chain_energy_per_cycle(inverter_sub, activity=0.10)
        assert hi.dynamic_j == pytest.approx(2.0 * lo.dynamic_j)
        assert hi.leakage_j == pytest.approx(lo.leakage_j)

    def test_leakage_fraction_bounds(self, inverter_sub):
        e = chain_energy_per_cycle(inverter_sub)
        assert 0.0 < e.leakage_fraction < 1.0

    def test_rejects_bad_activity(self, inverter_sub):
        with pytest.raises(ParameterError):
            chain_energy_per_cycle(inverter_sub, activity=1.5)

    def test_rejects_bad_stage_count(self, inverter_sub):
        with pytest.raises(ParameterError):
            chain_energy_per_cycle(inverter_sub, n_stages=0)

    def test_transient_mode_consistent(self, inverter_sub):
        fast = chain_energy_per_cycle(inverter_sub, transient=False)
        slow = chain_energy_per_cycle(inverter_sub, transient=True)
        assert slow.total_j == pytest.approx(fast.total_j, rel=0.5)


class TestVmin:
    def test_interior_minimum(self, inverter_sub):
        result = find_vmin(inverter_sub)
        assert 0.08 < result.vmin < 0.70

    def test_is_actually_minimal(self, inverter_sub):
        result = find_vmin(inverter_sub)
        e_at = result.energy.total_j
        for dv in (-0.03, 0.03):
            e_near = chain_energy_per_cycle(
                inverter_sub.with_vdd(result.vmin + dv)).total_j
            assert e_near >= e_at * 0.999

    def test_energy_curve_convex_around_minimum(self, inverter_sub):
        result = find_vmin(inverter_sub)
        grid = result.vdd_grid
        energy = result.energy_grid_j
        idx = int(np.argmin(energy))
        assert 0 < idx < len(grid) - 1

    def test_higher_activity_lowers_vmin(self, inverter_sub):
        # More switching -> dynamic term dominates -> optimum moves
        # down.  (At very high activity the interior optimum vanishes
        # entirely and V_min becomes the functionality floor, so both
        # points here use moderate activities.)
        lo = find_vmin(inverter_sub, activity=0.05)
        hi = find_vmin(inverter_sub, activity=0.20, vdd_lo=0.06)
        assert hi.vmin < lo.vmin

    def test_longer_chain_raises_vmin(self, inverter_sub):
        # More leakage per computation -> optimum moves up.
        short = find_vmin(inverter_sub, n_stages=10)
        long = find_vmin(inverter_sub, n_stages=100)
        assert long.vmin > short.vmin

    def test_rejects_bad_range(self, inverter_sub):
        with pytest.raises(ParameterError):
            find_vmin(inverter_sub, vdd_lo=0.5, vdd_hi=0.2)

    def test_boundary_minimum_rejected(self, inverter_sub):
        with pytest.raises(ParameterError):
            find_vmin(inverter_sub, vdd_lo=0.4, vdd_hi=0.7)

    def test_boundary_minimum_has_its_own_type(self, inverter_sub):
        # Callers that serve "no interior V_min" as a null value catch
        # this type; a bad range stays a plain ParameterError.
        with pytest.raises(VminBoundaryError):
            find_vmin(inverter_sub, vdd_lo=0.4, vdd_hi=0.7)
        with pytest.raises(ParameterError) as bad_range:
            find_vmin(inverter_sub, vdd_lo=0.5, vdd_hi=0.2)
        assert not isinstance(bad_range.value, VminBoundaryError)
