"""Scalar references for the circuit kernels.

Each name mirrors its production twin in :mod:`repro.circuit`: the
per-point Brent VTC solves, the scan-plus-brentq gain = -1 search
behind the noise margins, the per-abscissa butterfly-square loop, the
point-by-point V_min bracket sweep and the per-target DVS energy
curve.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from ..circuit import chain as chain_mod
from ..circuit import energy as energy_mod
from ..circuit import inverter as inverter_mod
from ..circuit import snm as snm_mod
from ..circuit import sram as sram_mod
from ..circuit.batch import XTOL_DEFAULT, lost_regeneration_error
from ..circuit.delay import K_D_DEFAULT
from ..circuit.dvs import energy_per_cycle_at_throughput
from ..circuit.energy import VminResult, chain_energy_per_cycle
from ..errors import ParameterError
from ._rebind import rebind


class Inverter(inverter_mod.Inverter):
    """:class:`repro.circuit.Inverter` with a per-point VTC."""

    def vtc(self, n_points: int = 121,
            xtol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
        """Full VTC on a uniform input grid, one Brent solve per
        point: ``(vin, vout)`` arrays."""
        if n_points < 5:
            raise ParameterError("need at least 5 VTC points")
        vins = np.linspace(0.0, self.vdd, n_points)
        vouts = np.array([self.vtc_point(float(v), xtol=xtol) for v in vins])
        return vins, vouts


def _unity_gain_points(inverter: inverter_mod.Inverter, n_scan: int = 101,
                       xtol: float = XTOL_DEFAULT) -> tuple[float, float]:
    """Locate the two gain = -1 inputs by scan + bisection refinement.

    The scan and the refinement use the *same* finite-difference gain
    stencil, so brentq brackets are guaranteed consistent.
    """
    vdd = inverter.vdd
    margin = vdd * 1e-3
    vins = np.linspace(margin, vdd - margin, n_scan)

    def gain_plus_one(vin: float) -> float:
        return inverter.gain(float(vin), xtol=xtol) + 1.0

    values = np.array([gain_plus_one(v) for v in vins])
    below = values < 0.0
    if not below.any():
        raise lost_regeneration_error(1)
    first = int(np.argmax(below))
    last = int(len(below) - 1 - np.argmax(below[::-1]))
    if first == 0 or last == len(vins) - 1:
        raise lost_regeneration_error(2)
    v_il = float(brentq(gain_plus_one, vins[first - 1], vins[first],
                        xtol=xtol))
    v_ih = float(brentq(gain_plus_one, vins[last], vins[last + 1],
                        xtol=xtol))
    return v_il, v_ih


def noise_margins(inverter: inverter_mod.Inverter, n_scan: int = 101,
                  xtol: float = XTOL_DEFAULT) -> snm_mod.NoiseMargins:
    """Gain = -1 noise margins from a per-point scan; raises
    :class:`repro.errors.LostRegenerationError` like its twin."""
    v_il, v_ih = _unity_gain_points(inverter, n_scan=n_scan, xtol=xtol)
    v_oh = inverter.vtc_point(v_il, xtol=xtol)
    v_ol = inverter.vtc_point(v_ih, xtol=xtol)
    return snm_mod.NoiseMargins(
        v_il=v_il, v_ih=v_ih, v_ol=v_ol, v_oh=v_oh,
        nm_low=v_il - v_ol, nm_high=v_oh - v_ih,
    )


def _lobe_square_sequential(f, g, x_lo: float, x_hi: float) -> float:
    """Per-x fixed-point loop with running-best pruning."""
    best = 0.0
    for x in np.linspace(x_lo, x_hi, 256):
        x = float(x)
        gap0 = f(x) - g(x)
        if gap0 <= best:
            continue
        lo, hi = 0.0, min(gap0, x_hi - x)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if mid <= f(x + mid) - g(x):
                lo = mid
            else:
                hi = mid
        best = max(best, lo)
    return best


_lobe_square = rebind(snm_mod._lobe_square,
                      _lobe_square_batch=_lobe_square_sequential)

butterfly_snm = rebind(snm_mod.butterfly_snm, _lobe_square=_lobe_square)


class SramCell(sram_mod.SramCell):
    """:class:`repro.circuit.SramCell` with a per-point read VTC."""

    def _read_vtc_point(self, vin: float, xtol: float = 1e-9) -> float:
        """Storage-node voltage during a read access, for one input
        [V]: one Brent solve of the read current balance."""
        if not 0.0 <= vin <= self.vdd:
            raise ParameterError("vin outside supply range")

        def balance(vout: float) -> float:
            i_pd = float(self.pulldown.ids(vin, vout))
            i_pu = float(self.pullup.ids(self.vdd - vin,
                                         max(self.vdd - vout, 0.0)))
            i_ax = float(self.access.ids(max(self.vdd - vout, 0.0),
                                         max(self.vdd - vout, 0.0)))
            return i_pd - i_pu - i_ax

        lo, hi = 0.0, self.vdd
        if balance(lo) >= 0.0:
            return lo
        if balance(hi) <= 0.0:
            return hi
        return float(brentq(balance, lo, hi, xtol=xtol))

    def read_vtc(self, n_points: int = 121,
                 xtol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
        """Read-disturbed VTC samples ``(vin, vout)``, one Brent solve
        per point."""
        vins = np.linspace(0.0, self.vdd, n_points)
        vouts = np.array([SramCell._read_vtc_point(self, float(v), xtol=xtol)
                          for v in vins])
        return vins, vouts


def hold_snm(cell: sram_mod.SramCell, n_points: int = 161) -> float:
    """Hold (standby) butterfly SNM of the cell [V]."""
    return butterfly_snm(Inverter.vtc(cell.inverter(), n_points))


def read_snm(cell: sram_mod.SramCell, n_points: int = 161) -> float:
    """Read butterfly SNM of the cell [V] (always <= hold SNM)."""
    return butterfly_snm(SramCell.read_vtc(cell, n_points))


def chain_energy_sweep(inverter: inverter_mod.Inverter, vdd_grid,
                       n_stages: int = 30, activity: float = 0.1,
                       k_d: float = K_D_DEFAULT) -> np.ndarray:
    """Total Eq. 7 energy per cycle [J], one scalar
    :func:`chain_energy_per_cycle` per grid point."""
    return np.array([
        chain_energy_per_cycle(inverter.with_vdd(float(v)), n_stages,
                               activity, k_d=k_d).total_j
        for v in vdd_grid
    ])


find_vmin = rebind(energy_mod.find_vmin, chain_energy_sweep=chain_energy_sweep)


class InverterChain(chain_mod.InverterChain):
    """:class:`repro.circuit.InverterChain` whose V_min search sweeps
    point by point."""

    minimum_energy_point = rebind(chain_mod.InverterChain.minimum_energy_point,
                                  find_vmin=find_vmin)


def dvs_curve(chain: chain_mod.InverterChain, f_targets_hz,
              mep: VminResult | None = None, power_gated: bool = False
              ) -> np.ndarray:
    """Energy per delivered cycle [J], one scalar
    :func:`energy_per_cycle_at_throughput` per rate target [hz]."""
    targets = np.asarray(f_targets_hz, dtype=float)
    return np.array([
        energy_per_cycle_at_throughput(chain, float(f), mep,
                                       power_gated=power_gated).energy_j
        for f in np.ravel(targets)
    ]).reshape(targets.shape)
