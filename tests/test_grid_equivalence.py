"""Scalar/batch parity for the corner-grid and DVS flow re-routes.

The Table 2/3 reporting (``table_rows``), the corner experiments
(``corner_grid`` / ``ff_ss_delay_spread``) and the DVS energy curve
(``dvs_curve`` / ``vdd_for_throughput_batch``) run on
``ParameterStack`` grids solved through the shared root-solve core in
:mod:`repro.numerics`.  Each re-route keeps its per-design scalar path
as a twin in :mod:`repro.reference`; this suite pins the agreement
(lint rule RPR004 statically requires every reference twin to be
exercised here or in a sibling ``test_*equivalence*`` suite).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import reference
from repro.circuit.chain import InverterChain
from repro.circuit.dvs import (
    chain_rate_batch,
    chain_rate_hz,
    dvs_curve,
    energy_per_cycle_at_throughput,
    vdd_for_throughput,
    vdd_for_throughput_batch,
)
from repro.circuit.inverter import Inverter
from repro.device.corners import (
    Corner,
    CornerSpec,
    at_corner,
    corner_grid,
    ff_ss_delay_spread,
)
from repro.constants import nm_to_cm
from repro.device.batch import ParameterStack
from repro.device.mosfet import nfet, pfet
from repro.errors import ParameterError
from repro.materials.oxide import hfo2
from repro.scaling.roadmap import node_by_name
from repro.scaling.strategy import DeviceDesign, DeviceFamily

RTOL = 1e-9

CORNERS = (Corner.FF, Corner.TT, Corner.SS)


def _toy_family() -> DeviceFamily:
    """A two-node family built straight from roadmap inputs.

    The devices use each node's own gate length/oxide (reference
    defaults to L_poly), matching how the optimiser flows construct
    designs — which is the contract ``DeviceFamily.nfet_stack``
    reconstructs.
    """
    designs = []
    for name, n_sub, halo, vdd in (("90nm", 1.2e18, 1.5e18, 0.30),
                                   ("45nm", 2.6e18, 1.8e18, 0.25)):
        node = node_by_name(name)
        designs.append(DeviceDesign(
            node=node,
            nfet=nfet(node.l_poly_nm, node.t_ox_nm, n_sub, halo),
            pfet=pfet(node.l_poly_nm, node.t_ox_nm, n_sub, halo),
            strategy="toy", vdd=vdd,
        ))
    return DeviceFamily(strategy="toy", designs=tuple(designs))


class TestTableRowsParity:
    def test_batch_matches_sequential(self):
        family = _toy_family()
        batch = family.table_rows()
        seq = reference.DeviceFamily(family.strategy,
                                     family.designs).table_rows()
        assert len(batch) == len(seq) == 2
        for row_b, row_s in zip(batch, seq):
            assert row_b.keys() == row_s.keys()
            for key in row_s:
                if key == "vth_sat_mv":
                    # Batch bisection (xtol=1e-9) vs memoised scalar
                    # brentq (xtol=1e-6): agreement is bounded by the
                    # scalar solver's own tolerance.
                    assert row_b[key] == pytest.approx(
                        row_s[key], abs=2e-3)
                else:
                    assert row_b[key] == pytest.approx(
                        row_s[key], rel=RTOL)

    def test_rejects_unknown_solver(self):
        # The solver= switch is gone: the reference twin is the only
        # other path.
        with pytest.raises(TypeError):
            _toy_family().table_rows(solver="sequential")


def _wide_halo(device):
    """``device`` with its halo's lateral straggle widened 1.5x."""
    halo = device.profile.halo
    return replace(device, profile=replace(
        device.profile, halo=replace(halo, sigma_x_cm=1.5 * halo.sigma_x_cm)))


class TestFromDevices:
    def test_lanes_replicate_scalar_devices(self, nfet90):
        other = pfet(32, 1.53, 3.0e18, 1.8e18)
        devices = (nfet90, other)
        metrics = ParameterStack.from_devices(devices).metrics(
            np.array([d.profile.n_sub_cm3 for d in devices]),
            np.array([d.profile.n_p_halo_cm3 for d in devices]))
        ioff = metrics.i_off_per_um(1.0)
        for lane, dev in enumerate(devices):
            assert ioff[lane] == pytest.approx(dev.i_off_per_um(1.0),
                                               rel=RTOL)

    def test_high_k_stack_rejected(self, nfet90):
        # Rebuilt as SiO2 at the HfO2 physical thickness, this device's
        # I_off would read ~1e7x low and its V_th ~1 V high.
        high_k = replace(nfet90, stack=hfo2(nm_to_cm(1.2)))
        with pytest.raises(ParameterError, match="SiO2"):
            ParameterStack.from_devices([high_k])

    def test_non_proportional_halo_rejected(self, nfet90):
        with pytest.raises(ParameterError, match="halo"):
            ParameterStack.from_devices([nfet90, _wide_halo(nfet90)])


class TestCornerGridParity:
    def test_grid_matches_scalar_corners(self, nfet90):
        other = nfet(32, 1.53, 3.0e18, 1.8e18)
        grid = corner_grid((nfet90, other), CORNERS)
        vth = grid.vth(0.25)
        ion = grid.i_on_per_um(0.25)
        ioff = grid.i_off_per_um(0.25)
        ss = grid.ss_v_per_dec
        for i, dev in enumerate((nfet90, other)):
            for j, corner in enumerate(CORNERS):
                lane = i * len(CORNERS) + j
                shifted = at_corner(dev, corner)
                assert vth[lane] == pytest.approx(
                    shifted.vth(0.25), rel=RTOL)
                assert ion[lane] == pytest.approx(
                    shifted.i_on_per_um(0.25), rel=RTOL)
                assert ioff[lane] == pytest.approx(
                    shifted.i_off_per_um(0.25), rel=RTOL)
                assert ss[lane] == pytest.approx(
                    shifted.ss_v_per_dec, rel=RTOL)

    def test_tt_grid_is_plain_stacked_evaluation(self, nfet90):
        metrics = corner_grid((nfet90,), (Corner.TT,))
        assert metrics.vth(0.25)[0] == pytest.approx(
            nfet90.vth(0.25), rel=RTOL)

    def test_custom_spec_flows_through(self, nfet90):
        spec = CornerSpec(tox_sigma_pct=2.0, doping_sigma_pct=8.0)
        grid = corner_grid((nfet90,), CORNERS, spec)
        scalar = [at_corner(nfet90, c, spec).vth(0.25) for c in CORNERS]
        assert grid.vth(0.25) == pytest.approx(np.array(scalar), rel=RTOL)

    def test_offset_devices_rejected(self, nfet90):
        from dataclasses import replace
        shifted = replace(nfet90, vth_offset_v=0.05)
        with pytest.raises(ParameterError):
            corner_grid((shifted,), CORNERS)

    def test_high_k_stack_rejected(self, nfet90):
        # A stack lane assumes SiO2: an HfO2 device's FF corner would
        # come back with ~1000x too little drive.
        high_k = replace(nfet90, stack=hfo2(nm_to_cm(1.2)))
        with pytest.raises(ParameterError, match="SiO2"):
            corner_grid((high_k,), CORNERS)

    def test_non_proportional_halo_rejected(self, nfet90):
        with pytest.raises(ParameterError, match="halo"):
            corner_grid((_wide_halo(nfet90),), CORNERS)

    def test_empty_grid_rejected(self, nfet90):
        with pytest.raises(ParameterError):
            corner_grid((), CORNERS)
        with pytest.raises(ParameterError):
            corner_grid((nfet90,), ())

    def test_ff_ss_delay_spread_solver_parity(self, nfet90):
        batch = ff_ss_delay_spread(nfet90, 0.25)
        seq = reference.ff_ss_delay_spread(nfet90, 0.25)
        assert batch == pytest.approx(seq, rel=RTOL)


@pytest.fixture(scope="module")
def dvs_chain():
    n = nfet(45, 1.7, 2.4e18, 1.4e18)
    p = pfet(45, 1.7, 2.4e18, 1.4e18, width_um=2.0)
    return InverterChain(Inverter(nfet=n, pfet=p, vdd=0.3),
                         n_stages=30, activity=0.1)


class TestDvsParity:
    def test_rate_kernel_matches_scalar(self, dvs_chain):
        grid = np.array([0.12, 0.25, 0.40, 0.80, 1.20])
        batch = chain_rate_batch(dvs_chain, grid)
        for v, r in zip(grid, batch):
            assert r == pytest.approx(
                chain_rate_hz(dvs_chain, float(v)), rel=RTOL)

    def test_vdd_solve_returns_hi_end_per_lane(self, dvs_chain):
        f_ref = chain_rate_hz(dvs_chain, 0.3)
        targets = f_ref * np.array([0.5, 1.0, 2.0, 5.0])
        batch = vdd_for_throughput_batch(dvs_chain, targets)
        seq = np.array([vdd_for_throughput(dvs_chain, float(f))
                        for f in targets])
        # Bitwise: both walk the identical bracket sequence and return
        # the hi end, and the batched rate kernel reproduces the scalar
        # chain rate exactly.
        assert np.array_equal(batch, seq)

    def test_already_met_targets_return_vdd_lo(self, dvs_chain):
        slow = np.array([1e-3 * chain_rate_hz(dvs_chain, 0.10)])
        assert vdd_for_throughput_batch(dvs_chain, slow)[0] == 0.10

    def test_unreachable_target_raises(self, dvs_chain):
        too_fast = np.array([10.0 * chain_rate_hz(dvs_chain, 1.2)])
        with pytest.raises(ParameterError):
            vdd_for_throughput_batch(dvs_chain, too_fast)

    def test_dvs_curve_solver_parity(self, dvs_chain):
        mep = dvs_chain.minimum_energy_point()
        f_vmin = chain_rate_hz(dvs_chain, mep.vmin)
        targets = f_vmin * np.array([0.05, 0.5, 1.0, 4.0, 16.0])
        for gated in (False, True):
            batch = dvs_curve(dvs_chain, targets, mep, power_gated=gated)
            seq = reference.dvs_curve(dvs_chain, targets, mep,
                                      power_gated=gated)
            assert batch == pytest.approx(seq, rel=RTOL)

    def test_dvs_curve_matches_operating_points(self, dvs_chain):
        mep = dvs_chain.minimum_energy_point()
        f_vmin = chain_rate_hz(dvs_chain, mep.vmin)
        targets = f_vmin * np.array([0.2, 2.0])
        curve = dvs_curve(dvs_chain, targets, mep)
        for f, e in zip(targets, curve):
            point = energy_per_cycle_at_throughput(dvs_chain, float(f), mep)
            assert e == pytest.approx(point.energy_j, rel=RTOL)
