"""Monte Carlo circuit variability under RDF V_th fluctuations.

Each trial perturbs the NFET and PFET thresholds of an inverter by
independent Gaussian offsets with the RDF sigma of each device, then
evaluates delay or SNM.  Deep in subthreshold the drive current is
exponential in V_th, so delay distributions become log-normal-like
with large spreads — the variability pressure the paper's introduction
describes.

Both distributions run on the array-native kernels of
:mod:`repro.circuit.batch`: the full trial population is evaluated as
one batched solve, with no per-trial ``Inverter`` reconstruction.  The
original trial loops live in :mod:`repro.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuit.batch import noise_margins_batch
from ..circuit.delay import analytic_delay_batch
from ..circuit.inverter import Inverter
from ..errors import ParameterError
from .rdf import rdf_sigma_vth


@dataclass(frozen=True)
class MonteCarloResult:
    """Summary of a Monte Carlo metric distribution.

    Attributes
    ----------
    samples:
        Raw per-trial metric values.
    mean / std / p05 / p50 / p95:
        Distribution summary statistics.
    """

    samples: np.ndarray
    mean: float
    std: float
    p05: float
    p50: float
    p95: float

    @property
    def sigma_over_mean(self) -> float:
        """Relative spread sigma/mu — the paper's variability currency."""
        return self.std / self.mean

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "MonteCarloResult":
        """Build the summary from raw samples."""
        arr = np.asarray(samples, dtype=float)
        if arr.size < 2:
            raise ParameterError("need at least 2 Monte Carlo samples")
        return cls(
            samples=arr,
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)),
            p05=float(np.percentile(arr, 5)),
            p50=float(np.percentile(arr, 50)),
            p95=float(np.percentile(arr, 95)),
        )


def sample_vth_offsets(inverter: Inverter, n_trials: int,
                       seed: int = 2007) -> tuple[np.ndarray, np.ndarray]:
    """Draw (NFET, PFET) V_th offset pairs for ``n_trials`` trials.

    The NFET and PFET draws come from two *spawned* child streams of
    the seed, so the PFET population is stable when ``n_trials``
    changes (with a single shared stream, growing the NFET draw would
    shift every PFET sample).  Compatibility note: the split changes
    the values drawn for any given seed relative to the earlier
    single-stream implementation.
    """
    if n_trials < 1:
        raise ParameterError("need at least one trial")
    seq_n, seq_p = np.random.SeedSequence(seed).spawn(2)
    rng_n = np.random.default_rng(seq_n)
    rng_p = np.random.default_rng(seq_p)
    sigma_n = rdf_sigma_vth(inverter.nfet)
    sigma_p = rdf_sigma_vth(inverter.pfet)
    return (rng_n.normal(0.0, sigma_n, n_trials),
            rng_p.normal(0.0, sigma_p, n_trials))


def delay_distribution(inverter: Inverter, n_trials: int = 200,
                       seed: int = 2007) -> MonteCarloResult:
    """FO1 analytic-delay distribution under RDF [s]."""
    offs_n, offs_p = sample_vth_offsets(inverter, n_trials, seed)
    c_load = inverter.load_capacitance(fanout=1)
    samples = analytic_delay_batch(inverter, offs_n, offs_p, c_load)
    return MonteCarloResult.from_samples(samples)


def snm_distribution(inverter: Inverter, n_trials: int = 100,
                     seed: int = 2007) -> MonteCarloResult:
    """Inverter SNM distribution under RDF [V].

    Trials where the perturbed inverter loses regeneration (the batch
    kernel's ``lost`` flag) are recorded as zero noise margin.
    """
    offs_n, offs_p = sample_vth_offsets(inverter, n_trials, seed)
    nm = noise_margins_batch(inverter, offs_n, offs_p)
    samples = np.where(nm.lost, 0.0, nm.snm)
    return MonteCarloResult.from_samples(samples)
