"""Tests for the 6T SRAM extension."""

import pytest

from repro import reference
from repro.circuit.sram import SramCell, hold_snm, read_snm
from repro.errors import ParameterError


@pytest.fixture(scope="module")
def cell(nfet90, pfet90):
    # Classic sizing: strong pull-down, weaker access, weak pull-up.
    return SramCell(
        pulldown=nfet90.with_width_um(2.0),
        pullup=pfet90.with_width_um(1.0),
        access=nfet90.with_width_um(1.0),
        vdd=0.30,
    )


class TestSramCell:
    def test_polarity_validation(self, nfet90, pfet90):
        with pytest.raises(ParameterError):
            SramCell(pulldown=pfet90, pullup=pfet90, access=nfet90, vdd=0.3)
        with pytest.raises(ParameterError):
            SramCell(pulldown=nfet90, pullup=nfet90, access=nfet90, vdd=0.3)
        with pytest.raises(ParameterError):
            SramCell(pulldown=nfet90, pullup=pfet90, access=pfet90, vdd=0.3)

    def test_rejects_nonpositive_vdd(self, nfet90, pfet90):
        with pytest.raises(ParameterError):
            SramCell(pulldown=nfet90, pullup=pfet90, access=nfet90, vdd=0.0)

    def test_hold_snm_positive(self, cell):
        assert hold_snm(cell) > 0.0

    def test_read_snm_below_hold(self, cell):
        assert read_snm(cell) < hold_snm(cell)

    def test_read_vtc_low_level_lifted(self, cell):
        # During a read the access device lifts the low storage node.
        inv_vtc = cell.inverter().vtc_point(cell.vdd)
        read_low = reference.SramCell._read_vtc_point(cell, cell.vdd)
        assert read_low > inv_vtc

    def test_read_vtc_monotone(self, cell):
        vins, vouts = cell.read_vtc(n_points=41)
        assert all(b <= a + 1e-9 for a, b in zip(vouts, vouts[1:]))

    def test_read_vtc_rejects_out_of_range(self, cell):
        with pytest.raises(ParameterError):
            reference.SramCell._read_vtc_point(cell, 2.0)


class TestSupplySensitivity:
    def test_hold_snm_grows_with_vdd(self, nfet90, pfet90):
        def cell_at(vdd):
            return SramCell(pulldown=nfet90.with_width_um(2.0),
                            pullup=pfet90.with_width_um(1.0),
                            access=nfet90.with_width_um(1.0), vdd=vdd)
        assert hold_snm(cell_at(0.40)) > hold_snm(cell_at(0.25))

    def test_weaker_access_better_read_snm(self, nfet90, pfet90):
        strong_access = SramCell(pulldown=nfet90.with_width_um(2.0),
                                 pullup=pfet90.with_width_um(1.0),
                                 access=nfet90.with_width_um(2.0), vdd=0.3)
        weak_access = SramCell(pulldown=nfet90.with_width_um(2.0),
                               pullup=pfet90.with_width_um(1.0),
                               access=nfet90.with_width_um(0.5), vdd=0.3)
        assert read_snm(weak_access) > read_snm(strong_access)
