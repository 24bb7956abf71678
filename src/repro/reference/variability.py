"""Scalar references for the RDF Monte Carlo distributions.

Each trial rebuilds a perturbed :class:`~repro.circuit.Inverter` and
runs the scalar delay or noise-margin extraction on it.
"""

from __future__ import annotations

import numpy as np

from ..circuit.delay import analytic_delay
from ..circuit.inverter import Inverter
from ..errors import LostRegenerationError
from ..variability.montecarlo import MonteCarloResult, sample_vth_offsets
from .circuit import noise_margins


def _perturbed(inverter: Inverter, dn: float, dp: float) -> Inverter:
    return Inverter(
        nfet=inverter.nfet.with_vth_offset(float(dn)),
        pfet=inverter.pfet.with_vth_offset(float(dp)),
        vdd=inverter.vdd,
    )


def delay_distribution(inverter: Inverter, n_trials: int = 200,
                       seed: int = 2007) -> MonteCarloResult:
    """FO1 analytic-delay distribution under RDF [s], trial by trial."""
    offs_n, offs_p = sample_vth_offsets(inverter, n_trials, seed)
    c_load = inverter.load_capacitance(fanout=1)
    samples = np.empty(n_trials)
    for i, (dn, dp) in enumerate(zip(offs_n, offs_p)):
        samples[i] = analytic_delay(_perturbed(inverter, dn, dp), c_load)
    return MonteCarloResult.from_samples(samples)


def snm_distribution(inverter: Inverter, n_trials: int = 100,
                     seed: int = 2007) -> MonteCarloResult:
    """Inverter SNM distribution under RDF [V], trial by trial.

    Trials whose perturbed inverter raises the structured
    :class:`repro.errors.LostRegenerationError` are recorded as zero
    noise margin; any other :class:`repro.errors.ParameterError` is a
    genuine defect and propagates.
    """
    offs_n, offs_p = sample_vth_offsets(inverter, n_trials, seed)
    samples = np.empty(n_trials)
    for i, (dn, dp) in enumerate(zip(offs_n, offs_p)):
        try:
            samples[i] = noise_margins(_perturbed(inverter, dn, dp)).snm
        except LostRegenerationError:
            samples[i] = 0.0
    return MonteCarloResult.from_samples(samples)
