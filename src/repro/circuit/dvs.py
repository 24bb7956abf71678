"""Dynamic voltage scaling down to the minimum-energy limit (ref [17]).

The paper's V_min analysis leans on Zhai et al., *The Limit of Dynamic
Voltage Scaling and Insomniac DVS* — whose central observation is that
a DVS system should never scale its supply below V_min: beneath it,
both energy *and* speed get worse, so a workload slower than the
V_min-rate is served best by computing at V_min and idling
("race-to-V_min").  This module implements that policy for the
library's inverter-chain workload model:

* :func:`vdd_for_throughput` — the lowest supply meeting a cycle-rate
  target (bisection on the chain delay),
* :func:`energy_per_cycle_at_throughput` — the DVS energy curve, with
  the race-to-V_min floor below the V_min rate,
* :func:`dvs_range` — the useful supply range [V_min, V_max] and the
  throughput dynamic range it spans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..numerics import bisect_illinois
from .chain import InverterChain
from .delay import K_D_DEFAULT
from .energy import VminResult, _load_and_cycle, chain_energy_sweep


@dataclass(frozen=True)
class DvsOperatingPoint:
    """One DVS operating point for a throughput target.

    Attributes
    ----------
    f_target_hz / f_actual_hz:
        Requested and delivered cycle rates.
    vdd:
        Chosen supply [V].
    energy_j:
        Energy per cycle including idle leakage when duty-cycled [J].
    duty_cycle:
        Fraction of time computing (1.0 above the V_min rate).
    """

    f_target_hz: float
    f_actual_hz: float
    vdd: float
    energy_j: float
    duty_cycle: float


def chain_rate_hz(chain: InverterChain, vdd: float) -> float:
    """Cycle rate of the chain at a supply [Hz]."""
    return 1.0 / chain.at_vdd(vdd).critical_path()


def vdd_for_throughput(chain: InverterChain, f_target_hz: float,
                       vdd_lo: float = 0.10, vdd_hi: float = 1.2,
                       tol: float = 1e-4) -> float:
    """Lowest supply at which the chain meets ``f_target_hz`` [hz].

    Delay is monotone decreasing in V_dd, so bisection applies.
    Raises when the target exceeds the rate at ``vdd_hi``.
    """
    if f_target_hz <= 0.0:
        raise ParameterError("throughput target must be positive")
    if chain_rate_hz(chain, vdd_hi) < f_target_hz:
        raise ParameterError(
            f"target {f_target_hz:.3g} Hz unreachable below "
            f"{vdd_hi:.2f} V"
        )
    if chain_rate_hz(chain, vdd_lo) >= f_target_hz:
        return vdd_lo
    lo, hi = vdd_lo, vdd_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if chain_rate_hz(chain, mid) >= f_target_hz:
            hi = mid
        else:
            lo = mid
    return hi


def chain_rate_batch(chain: InverterChain, vdd) -> np.ndarray:
    """Cycle rates of the chain over an array of supplies [Hz].

    Array counterpart of :func:`chain_rate_hz` through the shared
    Eq. 4 kernel, so one evaluation serves every active lane of a
    batched throughput solve.
    """
    vdd = np.asarray(vdd, dtype=float)
    if np.any(vdd <= 0.0):
        raise ParameterError("vdd must be positive")
    _, cycle = _load_and_cycle(chain.stage, vdd, chain.n_stages,
                               K_D_DEFAULT)
    return 1.0 / cycle


def vdd_for_throughput_batch(chain: InverterChain, f_targets_hz,
                             vdd_lo: float = 0.10, vdd_hi: float = 1.2,
                             tol: float = 1e-4) -> np.ndarray:
    """Lowest supplies meeting each ``f_targets_hz`` target [hz],
    as supplies [V].

    Batched port of :func:`vdd_for_throughput` through the gathered
    core: the bisection runs in pure-midpoint mode (warmup pinned to
    the sweep cap, so regula falsi never engages) and the returned
    value is each lane's *hi* bracket end — exactly the scalar loop's
    "lowest probed supply that met the target", not the midpoint.
    Already-met targets return ``vdd_lo`` via a zero-width bracket.
    """
    targets = np.asarray(f_targets_hz, dtype=float)
    if np.any(targets <= 0.0):
        raise ParameterError("throughput target must be positive")
    shape = targets.shape
    flat = np.ravel(targets)
    rate_lo = float(chain_rate_batch(chain, np.array([vdd_lo]))[0])
    rate_hi = float(chain_rate_batch(chain, np.array([vdd_hi]))[0])
    if rate_hi < flat.max():
        raise ParameterError(
            f"target {flat.max():.3g} Hz unreachable below "
            f"{vdd_hi:.2f} V"
        )
    at_lo = rate_lo >= flat
    lo = np.full_like(flat, vdd_lo)
    hi = np.where(at_lo, vdd_lo, vdd_hi)

    def residual(vdd: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return chain_rate_batch(chain, vdd) - flat[idx]

    result = bisect_illinois(
        residual, lo, hi, xtol=tol,
        warmup_sweeps=80, max_sweeps=80,
        sweep_counter="circuit.dvs_bisection_sweeps",
    )
    return result.hi.reshape(shape)


def dvs_curve(chain: InverterChain, f_targets_hz,
              mep: VminResult | None = None, power_gated: bool = False
              ) -> np.ndarray:
    """Energy per delivered cycle [J] per ``f_targets_hz`` rate
    target [hz].

    Vectorised counterpart of mapping
    :func:`energy_per_cycle_at_throughput` over ``f_targets_hz``: the
    above-V_min targets share one gathered bisection for their supplies
    (:func:`vdd_for_throughput_batch`) and one array energy sweep,
    while below-V_min targets apply the duty-cycled V_min floor
    arithmetic lane-wise.
    """
    targets = np.asarray(f_targets_hz, dtype=float)
    mep = chain.minimum_energy_point() if mep is None else mep
    f_vmin = chain_rate_hz(chain, mep.vmin)
    flat = np.ravel(targets)
    energy = np.empty_like(flat)
    above = flat >= f_vmin
    above_i = np.flatnonzero(above)
    if above_i.size:
        vdds = vdd_for_throughput_batch(chain, flat[above_i])
        energy[above_i] = chain_energy_sweep(
            chain.stage, vdds, chain.n_stages, chain.activity)
    below_i = np.flatnonzero(~above)
    if below_i.size:
        duty = flat[below_i] / f_vmin
        energy[below_i] = mep.energy.total_j
        if not power_gated:
            rebias = chain.at_vdd(mep.vmin)
            idle_power = (rebias.n_stages * rebias.stage.leakage_current()
                          * mep.vmin)
            energy[below_i] += (idle_power * (1.0 / flat[below_i])
                                * (1.0 - duty))
    return energy.reshape(targets.shape)


def energy_per_cycle_at_throughput(chain: InverterChain,
                                   f_target_hz: float,
                                   mep: VminResult | None = None,
                                   power_gated: bool = False
                                   ) -> DvsOperatingPoint:
    """Energy per cycle under the V_min-floored DVS policy.

    Above the V_min rate: conventional DVS (lowest supply meeting
    ``f_target_hz`` [hz]).  Below it: compute at V_min with duty cycle
    ``f_target / f(V_min)`` —

    * ``power_gated=False`` (default): the idle fraction still leaks,
      so energy per delivered cycle *diverges* as the duty cycle falls.
      This is the Insomniac observation: absent gating, sleeping slower
      than V_min is strictly worse than computing — stay awake.
    * ``power_gated=True``: ideal gating zeroes the idle leakage and
      energy per cycle saturates exactly at the V_min value — the DVS
      energy floor.
    """
    mep = chain.minimum_energy_point() if mep is None else mep
    f_vmin = chain_rate_hz(chain, mep.vmin)
    if f_target_hz >= f_vmin:
        vdd = vdd_for_throughput(chain, f_target_hz)
        rebias = chain.at_vdd(vdd)
        energy = rebias.energy_per_cycle().total_j
        return DvsOperatingPoint(
            f_target_hz=f_target_hz,
            f_actual_hz=chain_rate_hz(chain, vdd),
            vdd=vdd, energy_j=energy, duty_cycle=1.0,
        )
    # Duty-cycled operation at V_min: per delivered cycle, the active
    # energy plus (unless gated) the leakage of the idle remainder.
    duty = f_target_hz / f_vmin
    active = mep.energy.total_j
    idle_energy = 0.0
    if not power_gated:
        rebias = chain.at_vdd(mep.vmin)
        idle_power = (rebias.n_stages * rebias.stage.leakage_current()
                      * mep.vmin)
        idle_energy = idle_power * (1.0 / f_target_hz) * (1.0 - duty)
    return DvsOperatingPoint(
        f_target_hz=f_target_hz,
        f_actual_hz=f_vmin,
        vdd=mep.vmin,
        energy_j=active + idle_energy,
        duty_cycle=duty,
    )


@dataclass(frozen=True)
class DvsRange:
    """The useful DVS window of a design."""

    vmin: float
    vmax: float
    f_at_vmin_hz: float
    f_at_vmax_hz: float

    @property
    def throughput_dynamic_range(self) -> float:
        """f(V_max) / f(V_min) — decades of rate the window covers."""
        return self.f_at_vmax_hz / self.f_at_vmin_hz


def dvs_range(chain: InverterChain, vmax: float,
              mep: VminResult | None = None) -> DvsRange:
    """The [V_min, vmax] DVS window and its throughput span."""
    mep = chain.minimum_energy_point() if mep is None else mep
    if vmax <= mep.vmin:
        raise ParameterError("vmax must exceed V_min")
    return DvsRange(
        vmin=mep.vmin,
        vmax=vmax,
        f_at_vmin_hz=chain_rate_hz(chain, mep.vmin),
        f_at_vmax_hz=chain_rate_hz(chain, vmax),
    )
