"""Scalar-oracle vs batched circuit-kernel equivalence.

The vectorised kernels of :mod:`repro.circuit.batch` must reproduce
their scalar twins in :mod:`repro.reference` to <= 1e-9 relative when
both run at a tight tolerance, across the Table 2 devices and supplies
from deep sub-V_th to moderate inversion — including the
near-loss-of-regeneration corner, where the batch path must flag
exactly the trials the scalar path raises on, with the same message.
"""

import numpy as np
import pytest

from repro import reference
from repro.circuit import (
    Inverter,
    LOST_REGENERATION_MESSAGES,
    analytic_delay,
    analytic_delay_batch,
    butterfly_snm,
    find_vmin,
    gain_batch,
    lost_regeneration_error,
    noise_margins,
    noise_margins_batch,
    solve_vtc_batch,
)
from repro.circuit.energy import chain_energy_sweep
from repro.circuit.sram import SramCell
from repro.errors import LostRegenerationError, ParameterError
from repro.reference import variability as reference_mc
from repro.reference.variability import _perturbed
from repro.variability import sample_vth_offsets, snm_distribution

#: Tight solve tolerance for the <= 1e-9 relative equivalence checks.
TIGHT = 1e-13
SUPPLIES = (0.15, 0.25, 0.40)


def _rel(a, b, floor=1e-30):
    return np.max(np.abs(np.asarray(a) - np.asarray(b))
                  / np.maximum(np.abs(np.asarray(b)), floor))


@pytest.mark.parametrize("vdd", SUPPLIES)
class TestVtcEquivalence:
    def test_vtc_grid(self, nfet90, pfet90, vdd):
        inv = Inverter(nfet=nfet90, pfet=pfet90, vdd=vdd)
        vins = np.linspace(0.0, vdd, 41)
        batch = solve_vtc_batch(inv, vins, xtol=TIGHT)
        seq = np.array([inv.vtc_point(float(v), xtol=TIGHT) for v in vins])
        assert np.max(np.abs(batch - seq)) <= 1e-9 * vdd

    def test_gain_stencil(self, nfet90, pfet90, vdd):
        inv = Inverter(nfet=nfet90, pfet=pfet90, vdd=vdd)
        vins = np.linspace(0.1 * vdd, 0.9 * vdd, 9)
        batch = gain_batch(inv, vins, xtol=TIGHT)
        seq = np.array([inv.gain(float(v), xtol=TIGHT) for v in vins])
        # The stencil divides VTC solver noise by 2h = 2e-4 vdd, so the
        # gains themselves only agree to ~xtol / (2h).
        assert np.allclose(batch, seq, rtol=1e-6, atol=TIGHT / (1e-4 * vdd))


class TestNoiseMarginEquivalence:
    FIELDS = ("v_il", "v_ih", "v_ol", "v_oh", "nm_low", "nm_high")

    @pytest.mark.parametrize("vdd", SUPPLIES)
    def test_table2_devices(self, super_family, vdd):
        for design in super_family.designs:
            inv = design.inverter(vdd)
            try:
                seq = reference.noise_margins(inv, xtol=TIGHT)
            except LostRegenerationError as err:
                assert str(err) == LOST_REGENERATION_MESSAGES[err.code - 1]
                with pytest.raises(LostRegenerationError) as batch_err:
                    noise_margins(inv, xtol=TIGHT)
                assert batch_err.value.code == err.code
                continue
            batch = noise_margins(inv, xtol=TIGHT)
            # All fields live on the supply scale, so 1e-9 relative
            # carries an absolute floor of 1e-9 vdd.
            for field in self.FIELDS:
                assert np.allclose(getattr(batch, field),
                                   getattr(seq, field),
                                   rtol=1e-9, atol=1e-9 * vdd), field
            assert np.allclose(batch.snm, seq.snm,
                               rtol=1e-9, atol=1e-9 * vdd)

    def test_near_loss_corner_flags_match(self, inverter_sub):
        """Deep perturbations: batch lost flags == scalar raises."""
        spread = np.linspace(-0.12, 0.12, 5)
        dn, dp = np.meshgrid(spread, -spread)
        dn, dp = dn.ravel(), dp.ravel()
        batch = noise_margins_batch(inverter_sub, dn, dp, xtol=TIGHT)
        assert batch.lost.any() and not batch.lost.all()
        for i in range(dn.size):
            pert = _perturbed(inverter_sub, dn[i], dp[i])
            if batch.lost[i]:
                code = int(batch.lost_code[i])
                with pytest.raises(LostRegenerationError) as err:
                    reference.noise_margins(pert, xtol=TIGHT)
                assert err.value.code == code
                assert str(err.value) == LOST_REGENERATION_MESSAGES[code - 1]
            else:
                seq = reference.noise_margins(pert, xtol=TIGHT)
                assert np.allclose(float(batch.snm[i]), seq.snm,
                                   rtol=1e-9, atol=1e-9 * inverter_sub.vdd)


class TestMonteCarloEquivalence:
    def test_delay_batch_matches_perturbed_scalar(self, inverter_sub):
        dn, dp = sample_vth_offsets(inverter_sub, 64)
        c_load = inverter_sub.load_capacitance(fanout=1)
        batch = analytic_delay_batch(inverter_sub, dn, dp, c_load)
        seq = np.array([
            analytic_delay(_perturbed(inverter_sub, a, b), c_load)
            for a, b in zip(dn, dp)
        ])
        assert _rel(batch, seq) <= 1e-9

    def test_snm_distribution_solvers_agree(self, inverter_sub):
        batch = snm_distribution(inverter_sub, n_trials=24)
        seq = reference.snm_distribution(inverter_sub, n_trials=24)
        # Default (loose) tolerances: the paths agree to solver noise.
        assert np.allclose(batch.samples, seq.samples,
                           rtol=1e-5, atol=1e-8)


class TestEnergyEquivalence:
    def test_chain_energy_sweep(self, inverter_sub):
        grid = np.geomspace(0.1, 0.6, 17)
        batch = chain_energy_sweep(inverter_sub, grid)
        seq = reference.chain_energy_sweep(inverter_sub, grid)
        assert _rel(batch, seq) <= 1e-9

    def test_find_vmin_solvers_agree(self, nfet90, pfet90):
        inv = Inverter(nfet=nfet90, pfet=pfet90, vdd=0.3)
        batch = find_vmin(inv)
        seq = reference.find_vmin(inv)
        assert batch.vmin == pytest.approx(seq.vmin, rel=1e-9)
        assert _rel(batch.energy_grid_j, seq.energy_grid_j) <= 1e-9


class TestSramEquivalence:
    def test_read_vtc(self, nfet90, pfet90):
        devices = dict(pulldown=nfet90.with_width_um(2.0),
                       pullup=pfet90.with_width_um(1.0),
                       access=nfet90.with_width_um(1.0), vdd=0.30)
        cell = SramCell(**devices)
        vins_b, vouts_b = cell.read_vtc(61, xtol=TIGHT)
        vins_s, vouts_s = reference.SramCell(**devices).read_vtc(61,
                                                                 xtol=TIGHT)
        assert np.array_equal(vins_b, vins_s)
        assert np.max(np.abs(vouts_b - vouts_s)) <= 1e-9 * cell.vdd


class TestButterflyEquivalence:
    def test_lobe_square_solvers_identical(self, inverter_sub):
        vtc = inverter_sub.vtc(161)
        batch = butterfly_snm(vtc)
        seq = reference.butterfly_snm(vtc)
        assert batch == pytest.approx(seq, rel=1e-12, abs=1e-15)


class TestLostRegenerationNarrowing:
    """Satellite: only the structured error maps to SNM = 0."""

    @pytest.mark.parametrize("code", (1, 2))
    def test_structured_error_becomes_zero(self, inverter_sub, monkeypatch,
                                           code):
        def fake_noise_margins(inverter):
            raise lost_regeneration_error(code)

        monkeypatch.setattr(reference_mc, "noise_margins",
                            fake_noise_margins)
        result = reference_mc.snm_distribution(inverter_sub, n_trials=5)
        assert np.all(result.samples == 0.0)

    def test_genuine_bug_propagates(self, inverter_sub, monkeypatch):
        def fake_noise_margins(inverter):
            raise ParameterError("boom: not a regeneration loss")

        monkeypatch.setattr(reference_mc, "noise_margins",
                            fake_noise_margins)
        with pytest.raises(ParameterError, match="boom"):
            reference_mc.snm_distribution(inverter_sub, n_trials=5)

    def test_same_message_plain_error_still_propagates(self, inverter_sub,
                                                       monkeypatch):
        """The old string-matching contract is gone: a plain
        ParameterError no longer silences as SNM = 0 even when its
        message happens to equal a canonical lost message."""
        def fake_noise_margins(inverter):
            raise ParameterError(LOST_REGENERATION_MESSAGES[0])

        monkeypatch.setattr(reference_mc, "noise_margins",
                            fake_noise_margins)
        with pytest.raises(ParameterError, match="never reaches"):
            reference_mc.snm_distribution(inverter_sub, n_trials=5)

    def test_factory_rejects_unknown_code(self):
        with pytest.raises(ParameterError, match="must be 1 or 2"):
            lost_regeneration_error(3)


class TestSeedStreamSplit:
    """Satellite: NFET/PFET offsets come from independent child streams."""

    def test_pfet_draws_stable_under_trial_count(self, inverter_sub):
        short = sample_vth_offsets(inverter_sub, 50)
        long = sample_vth_offsets(inverter_sub, 100)
        assert np.array_equal(short[0], long[0][:50])
        assert np.array_equal(short[1], long[1][:50])

    def test_streams_independent(self, inverter_sub):
        offs_n, offs_p = sample_vth_offsets(inverter_sub, 200)
        # A shared stream would interleave: correlation of sorted halves
        # is not a concern, but identical normalised sequences would be.
        assert not np.allclose(offs_n / offs_n.std(),
                               offs_p / offs_p.std())
