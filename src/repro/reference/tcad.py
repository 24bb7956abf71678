"""Reference twin of :class:`repro.tcad.DeviceSimulator`.

The production simulator runs every gate bias of a sweep through the
vectorised Poisson batch kernel; this twin keeps the original
warm-started bias-by-bias loop.  Both converge each bias to the same
fixed point, so extracted metrics agree to solver tolerance.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..tcad import simulator
from ..tcad.charge import sheet_charges
from ..tcad.poisson1d import PoissonSolution


class DeviceSimulator(simulator.DeviceSimulator):
    """:class:`repro.tcad.DeviceSimulator` with scalar, warm-started
    sweeps."""

    def _sweep_sequential(self, vgs_grid: np.ndarray,
                          channel_potential_v: float,
                          extract: Callable[[PoissonSolution], float]
                          ) -> np.ndarray:
        """Warm-started bias-by-bias sweep, one scalar per solution."""
        vgs = np.asarray(vgs_grid, dtype=float)
        values = np.empty_like(vgs)
        warm = None
        for i, vg in enumerate(vgs):
            sol = self.solve(float(vg), channel_potential_v, initial_psi=warm)
            values[i] = extract(sol)
            warm = sol.psi_v
        return values

    def surface_potential_sweep(self, vgs_grid: np.ndarray,
                                channel_potential_v: float = 0.0
                                ) -> np.ndarray:
        """Surface potential psi_s at each gate voltage, with
        quasi-Fermi shift ``channel_potential_v`` [V]."""
        return self._sweep_sequential(vgs_grid, channel_potential_v,
                                      lambda sol: sol.surface_potential_v)

    def inversion_charge_sweep(self, vgs_grid: np.ndarray,
                               channel_potential_v: float = 0.0
                               ) -> np.ndarray:
        """Inversion sheet charge [C/cm2] at each gate voltage, with
        quasi-Fermi shift ``channel_potential_v`` [V]."""
        return self._sweep_sequential(
            vgs_grid, channel_potential_v,
            lambda sol: sheet_charges(sol).inversion)

    def _drain_charges(self, vg_eff: np.ndarray,
                       vds_arr: np.ndarray) -> np.ndarray:
        """One cold drain-end solve per (V_g,eff, V_ds) pair [C/cm2]."""
        q_d = np.empty_like(vds_arr)
        for i, vds in enumerate(vds_arr):
            sol_d = self.solve(float(vg_eff[i]), float(vds))
            q_d[i] = sheet_charges(sol_d).inversion
        return q_d
