"""Batch-vs-reference equivalence of the DCVS level shifter.

RPR004 coverage: ``LevelShifter.output_levels``,
``LevelShifter.converts_correctly`` and ``min_convertible_vdd`` are
pinned against their :mod:`repro.reference` twins, which settle each
input state in its own scalar ``NodalSolver`` transient (the shared
``with_vdd_low`` keeps the twin's class through the bisection).
Production runs both input states as two lanes of one compiled-MNA
transient on the same horizon and step, so the settled levels agree
to rounding and every verdict — hence every bisection answer — is
identical.
"""

import dataclasses

import pytest

from repro import reference
from repro.circuit.level_shifter import LevelShifter, min_convertible_vdd

TOL_V = 1e-12

#: (vdd_low [V], pull-down width [um]): shifters that fail (0.30 and
#: 0.52 V at 4 um) and that convert (0.85 V at 4 um; at 16 um 0.49 V,
#: just above the ~0.492 V limit, 0.52 V and 0.85 V).
POINTS = [(0.30, 4.0), (0.52, 4.0), (0.85, 4.0),
          (0.49, 16.0), (0.52, 16.0), (0.85, 16.0)]


@pytest.fixture(scope="module")
def devices(sub_family):
    design = sub_family.design("32nm")
    return {"nfet": design.nfet, "pfet": design.pfet, "vdd_high": 0.9}


@pytest.mark.parametrize("vdd_low,width", POINTS)
def test_output_levels_match_reference(devices, vdd_low, width):
    fast = LevelShifter(vdd_low=vdd_low, nfet_width_um=width, **devices)
    slow = reference.LevelShifter(vdd_low=vdd_low, nfet_width_um=width,
                                  **devices)
    for vin in (vdd_low, 0.0):
        assert fast.output_levels(vin) == pytest.approx(
            slow.output_levels(vin), abs=TOL_V, rel=0.0)


@pytest.mark.parametrize("vdd_low,width", POINTS)
def test_converts_correctly_verdicts_match(devices, vdd_low, width):
    fast = LevelShifter(vdd_low=vdd_low, nfet_width_um=width, **devices)
    slow = reference.LevelShifter(vdd_low=vdd_low, nfet_width_um=width,
                                  **devices)
    assert fast.converts_correctly() == slow.converts_correctly()


def test_with_vdd_low_copies_every_field(devices):
    fast = LevelShifter(vdd_low=0.9, nfet_width_um=16.0,
                        **devices).with_vdd_low(0.5)
    slow = reference.LevelShifter(vdd_low=0.9, nfet_width_um=16.0,
                                  **devices).with_vdd_low(0.5)
    assert type(slow) is reference.LevelShifter
    assert vars(slow) == vars(fast)
    # The settling capacitance is a module constant, not a knob a copy
    # could drop.
    assert [f.name for f in dataclasses.fields(fast)] == [
        "nfet", "pfet", "vdd_low", "vdd_high", "nfet_width_um"]


@pytest.mark.parametrize("tol", [0.02, 0.005])
def test_min_convertible_vdd_bitwise(devices, tol):
    shifter = LevelShifter(vdd_low=0.9, nfet_width_um=16.0, **devices)
    fast = min_convertible_vdd(shifter, lo=0.3, hi=0.9, tol=tol)
    slow = reference.min_convertible_vdd(shifter, lo=0.3, hi=0.9, tol=tol)
    assert fast == slow
