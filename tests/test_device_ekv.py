"""The EKV kernel: analytic partials, the overflow branch, frozen outputs.

* ``∂I/∂V_gs`` and ``∂I/∂V_ds`` from :func:`repro.device.ekv.ids`
  agree with central differences over bias x corner space for both
  polarities, on each side of every kink of the model.
* ``_ekv_f`` evaluates only the branch each lane needs and is bitwise
  equal to the two-branch ``np.where`` formula it replaced.
* :meth:`IVModel.ids` is bitwise equal to a table recorded with the
  three-copy implementation that preceded the kernel.
"""

from __future__ import annotations

import functools
import json
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.device import ekv, nfet, pfet
from repro.device.corners import Corner, at_corner
from repro.errors import ParameterError

FROZEN = pathlib.Path(__file__).parent / "data" / "ekv_ids_frozen.json"

#: Central-difference step [V] and the agreement demanded of it,
#: relative to ``|∂I| + |I| / 1 V`` (the step's truncation and
#: round-off errors stay ~1e-8 of that scale).
FD_STEP_V = 1e-5
FD_RTOL = 1e-6

#: Kinks (``V_p = 2 v_T``, ``V_gs + V_th0 = 0``, ``V_ds = 0``) closer
#: than this [V] to a stencil are skipped by the random search and
#: covered by the explicit one-side-each tests below.
KINK_CLEARANCE_V = 1e-3


@functools.lru_cache(maxsize=None)
def _card(name: str) -> ekv.DeviceCard:
    n65 = nfet(l_poly_nm=65, t_ox_nm=2.1, n_sub_cm3=1.2e18,
               n_p_halo_cm3=1.5e18)
    p65 = pfet(l_poly_nm=65, t_ox_nm=2.1, n_sub_cm3=1.2e18,
               n_p_halo_cm3=1.5e18, width_um=2.0)
    devices = {
        "n65": n65,
        "p65": p65,
        "n65_ff": at_corner(n65, Corner.FF),
        "p65_ss": at_corner(p65, Corner.SS),
        "p32_offset": pfet(l_poly_nm=32, t_ox_nm=1.2, n_sub_cm3=4e18,
                           n_p_halo_cm3=2e18).with_vth_offset(0.04),
        "n45_hot": nfet(l_poly_nm=45, t_ox_nm=1.6, n_sub_cm3=2e18,
                        n_p_halo_cm3=1e18, temperature_k=360.0),
    }
    if name.endswith("_nobarrier"):
        return _card(name[:-len("_nobarrier")])._replace(sce_barrier_v=0.0)
    return devices[name].iv.card


CARDS = ("n65", "p65", "n65_ff", "p65_ss", "p32_offset", "n45_hot",
         "n65_nobarrier", "p65_nobarrier")


def _assert_partials(card, vgs, vds, shift, h_vds=FD_STEP_V):
    current, gm, gds = ekv.ids(card, vgs, vds, vth_shift_v=shift,
                               derivs=True)

    def i(g, d):
        return ekv.ids(card, g, d, vth_shift_v=shift)

    h = FD_STEP_V
    fd_gm = (i(vgs + h, vds) - i(vgs - h, vds)) / (2.0 * h)
    fd_gds = (i(vgs, vds + h_vds) - i(vgs, vds - h_vds)) / (2.0 * h_vds)
    scale = abs(current)
    assert np.isfinite(current) and np.isfinite(gm) and np.isfinite(gds)
    assert abs(gm - fd_gm) <= FD_RTOL * (abs(gm) + scale)
    assert abs(gds - fd_gds) <= FD_RTOL * (abs(gds) + scale)
    return current, gm, gds


def _pinch_off_v(card, vgs, vds, shift):
    return (vgs - (ekv.threshold_v(card, vds) + shift)) / card.slope_factor


def _vgs_at_pinch_off(card, vp, vds, shift):
    """The V_gs [V] that puts V_p at ``vp`` for this drain bias."""
    return ekv.threshold_v(card, vds) + shift + card.slope_factor * vp


class TestAnalyticPartials:
    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(CARDS),
           vgs=st.floats(min_value=-0.6, max_value=5.0),
           vds=st.floats(min_value=1e-3, max_value=1.5),
           shift=st.floats(min_value=-0.15, max_value=0.15))
    def test_match_central_differences(self, name, vgs, vds, shift):
        card = _card(name)
        vp = _pinch_off_v(card, vgs, vds, shift)
        # Stencils must not straddle a kink (V_ds moves V_p via DIBL).
        assume(abs(vp - 2.0 * card.vt_v) * card.slope_factor
               > KINK_CLEARANCE_V)
        assume(abs(vgs + card.field_vth0_v) > KINK_CLEARANCE_V)
        _assert_partials(card, vgs, vds, shift)

    @pytest.mark.parametrize("name", CARDS)
    @pytest.mark.parametrize("vds", [1e-5, 1e-4, 1e-3])
    def test_small_drain_bias(self, name, vds):
        """V_ds -> 0: the stencil shrinks with V_ds and stays > 0."""
        card = _card(name)
        for vgs in (0.05, 0.3, 1.2):
            _assert_partials(card, vgs, vds, 0.0, h_vds=vds / 100.0)

    @pytest.mark.parametrize("name", CARDS)
    def test_zero_drain_bias_is_one_sided(self, name):
        """At V_ds = 0 exactly, g_ds is the right-hand derivative."""
        card = _card(name)
        h = 1e-8
        for vgs in (0.05, 0.3, 1.2):
            current, _, gds = ekv.ids(card, vgs, 0.0, derivs=True)
            assert current == 0.0
            forward = ekv.ids(card, vgs, h) / h
            assert gds == pytest.approx(forward, rel=1e-5)

    @pytest.mark.parametrize("name", CARDS)
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_each_side_of_velocity_saturation_kink(self, name, side):
        """V_p just below and just above v_drive's 2 v_T floor."""
        card = _card(name)
        for vds in (0.05, 0.4, 1.0):
            vp = 2.0 * card.vt_v + side * 5e-3
            vgs = _vgs_at_pinch_off(card, vp, vds, 0.0)
            _assert_partials(card, vgs, vds, 0.0, h_vds=1e-4)

    @pytest.mark.parametrize("name", CARDS)
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_each_side_of_mobility_field_kink(self, name, side):
        """V_gs + V_th0 just below and just above 0 (E_eff clamps)."""
        card = _card(name)
        vgs = -card.field_vth0_v + side * 5e-3
        current, gm, _ = _assert_partials(card, vgs, 0.3, 0.0)
        assert current > 0.0 and gm > 0.0

    @pytest.mark.parametrize("name", CARDS)
    def test_overflow_branch(self, name):
        """u/2 > 30 on both the forward and the reverse EKV term."""
        card = _card(name)
        for vds in (1e-3, 0.1, 0.5):
            vgs = _vgs_at_pinch_off(card, 70.0 * card.vt_v + 0.6, vds, 0.0)
            u_rev = (_pinch_off_v(card, vgs, vds, 0.0) - vds) / card.vt_v
            assert u_rev / 2.0 > 30.0
            _assert_partials(card, vgs, vds, 0.0)

    def test_mixed_polarity_stack_matches_each_device(self):
        """An array ``electron`` field picks each lane's field law."""
        cards = [_card("n65"), _card("p65")]
        stack = ekv.DeviceCard(*(np.array(pair) for pair in zip(*cards)))
        vgs = np.array([0.4, 0.4])
        vds = np.array([0.2, 0.2])
        got = ekv.ids(stack, vgs, vds, derivs=True)
        for lane, card in enumerate(cards):
            want = ekv.ids(card, 0.4, 0.2, derivs=True)
            for g, w in zip(got, want):
                assert g[lane] == pytest.approx(w, rel=1e-13)

    def test_derivs_reject_a_precomputed_ispec(self):
        card = _card("n65")
        with pytest.raises(ParameterError):
            ekv.ids(card, 0.3, 0.2, ispec_a=1e-6, derivs=True)

    def test_card_take_gathers_lanes_and_shares_scalars(self):
        stack = _card("n65")._replace(vth0_v=np.array([0.1, 0.2, 0.3]))
        sub = stack.take(np.array([2, 0]))
        assert np.array_equal(sub.vth0_v, [0.3, 0.1])
        assert sub.slope_factor == stack.slope_factor


def _two_branch_f(u):
    """The two-branch formula ``_ekv_f`` replaced, kept as the oracle."""
    half = 0.5 * u
    out = np.where(half > 30.0, half + np.log1p(np.exp(-np.abs(half))),
                   np.log1p(np.exp(np.minimum(half, 30.0))))
    return out ** 2


class TestEkvF:
    @pytest.mark.parametrize("u", [
        np.array([-1e3, -40.0, 0.0, 1.0, 59.0, 59.999999]),   # below
        np.array([60.0]),                                     # at
        np.array([60.000001, 61.0, 200.0, 1e4, 1e100]),      # above
        np.array([-5.0, 60.0, 75.0, 1e6]),                    # mixed
    ])
    def test_branches_bitwise_and_quiet(self, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ekv._ekv_f(u)
        assert np.all(np.isfinite(got))
        assert got.tobytes() == _two_branch_f(u).tobytes()

    @pytest.mark.parametrize("u", [-3.0, 60.0, 75.0])
    def test_scalar_inputs(self, u):
        for value in (u, np.float64(u), np.asarray(u)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = ekv._ekv_f(value)
            assert float(got).hex() == float(_two_branch_f(value)).hex()


class TestFrozenIds:
    """:meth:`IVModel.ids` bit for bit against the pre-kernel table."""

    @pytest.fixture(scope="class")
    def table(self):
        return json.loads(FROZEN.read_text())

    def _device(self, spec):
        build = nfet if spec["kind"] == "nfet" else pfet
        device = build(**spec["kw"])
        if spec.get("offset"):
            device = device.with_vth_offset(spec["offset"])
        return device

    def test_scalar_calls(self, table):
        for name, spec in table["devices"].items():
            iv = self._device(spec).iv
            got = [float(iv.ids(g, d, s)).hex()
                   for s in table["shifts"]
                   for g in table["vgs"]
                   for d in table["vds"]]
            assert got == table["scalar"][name], name

    def test_array_calls(self, table):
        grids = np.meshgrid(table["vgs"], table["vds"], table["shifts"],
                            indexing="ij")
        vgs, vds, shift = (grid.ravel() for grid in grids)
        for name, spec in table["devices"].items():
            got = self._device(spec).iv.ids(vgs, vds, shift)
            assert [float(x).hex() for x in got] == table["array"][name], \
                name
