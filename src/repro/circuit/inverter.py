"""The CMOS inverter: voltage transfer characteristic and small-signal gain.

The VTC is obtained exactly as the paper's Eq. 3(a) prescribes — by
equating the NFET and PFET drain currents at the output node — except
numerically and with the full weak-to-strong-inversion model, so the
same code serves both the sub-V_th (250 mV) and nominal-V_dd analyses.
Whole input grids run on the vectorised bisection kernel of
:mod:`repro.circuit.batch`; single points use a Brent solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .. import perf
from ..device.mosfet import MOSFET, Polarity
from ..errors import ParameterError
from .batch import solve_vtc_batch


@dataclass(frozen=True)
class Inverter:
    """A static CMOS inverter.

    Parameters
    ----------
    nfet / pfet:
        Pull-down and pull-up devices.  The PFET is evaluated through
        the polarity-symmetric model: its source sits at V_dd, so its
        gate-source and drain-source magnitudes are ``V_dd - V_in`` and
        ``V_dd - V_out``.
    vdd:
        Supply voltage [V].
    """

    nfet: MOSFET
    pfet: MOSFET
    vdd: float

    def __post_init__(self) -> None:
        if self.vdd <= 0.0:
            raise ParameterError(f"vdd must be positive, got {self.vdd}")
        if self.nfet.polarity is not Polarity.NFET:
            raise ParameterError("nfet argument must be an NFET")
        if self.pfet.polarity is not Polarity.PFET:
            raise ParameterError("pfet argument must be a PFET")

    # -- device currents at a bias point ------------------------------------------

    def pulldown_current(self, vin: float, vout: float) -> float:
        """NFET drain current [A] at the given input/output voltages."""
        return float(self.nfet.ids(vin, max(vout, 0.0)))

    def pullup_current(self, vin: float, vout: float) -> float:
        """PFET source-to-drain current [A] at the given voltages."""
        return float(self.pfet.ids(self.vdd - vin,
                                   max(self.vdd - vout, 0.0)))

    def output_current(self, vin: float, vout: float) -> float:
        """Net current charging the output node: ``I_P - I_N`` [A]."""
        return self.pullup_current(vin, vout) - self.pulldown_current(vin, vout)

    # -- static transfer -----------------------------------------------------------

    def vtc_point(self, vin: float, xtol: float = 1e-9) -> float:
        """Static output voltage for one input voltage [V].

        Solves ``I_N(V_in, V_out) = I_P(V_in, V_out)``; the balance
        function is monotonic in ``V_out`` so the bracket [0, V_dd]
        always contains exactly one root.
        """
        if not 0.0 <= vin <= self.vdd:
            raise ParameterError(
                f"vin={vin} outside the supply range [0, {self.vdd}]"
            )

        def balance(vout: float) -> float:
            return (self.pulldown_current(vin, vout)
                    - self.pullup_current(vin, vout))

        perf.bump("circuit.vtc_scalar_solves")
        lo, hi = 0.0, self.vdd
        f_lo, f_hi = balance(lo), balance(hi)
        if f_lo >= 0.0:
            return lo
        if f_hi <= 0.0:
            return hi
        return float(brentq(balance, lo, hi, xtol=xtol))

    def vtc(self, n_points: int = 121,
            xtol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
        """Full VTC on a uniform input grid: ``(vin, vout)`` arrays,
        every input point solved in one vectorised bisection."""
        if n_points < 5:
            raise ParameterError("need at least 5 VTC points")
        vins = np.linspace(0.0, self.vdd, n_points)
        return vins, solve_vtc_batch(self, vins, xtol=xtol)

    def gain(self, vin: float, h_v: float | None = None,
             xtol: float = 1e-9) -> float:
        """Small-signal voltage gain dV_out/dV_in at ``vin``
        (negative); ``h_v`` [V] overrides the stencil half-step."""
        step = (self.vdd * 1e-4) if h_v is None else h_v
        lo = max(vin - step, 0.0)
        hi = min(vin + step, self.vdd)
        if hi <= lo:
            raise ParameterError("gain stencil collapsed; vin at a corner?")
        return (self.vtc_point(hi, xtol=xtol)
                - self.vtc_point(lo, xtol=xtol)) / (hi - lo)

    def switching_threshold(self, xtol: float = 1e-9) -> float:
        """Input voltage where ``V_out = V_in`` (the inverter trip point)."""

        def crossing(vin: float) -> float:
            return self.vtc_point(vin) - vin

        return float(brentq(crossing, 0.0, self.vdd, xtol=xtol))

    # -- loading ----------------------------------------------------------------------

    def input_capacitance(self) -> float:
        """Total gate capacitance presented at the input [F].

        Bias-aware: at sub-V_th supplies the intrinsic gate area term
        collapses to its weak-inversion (depletion-limited) value.
        """
        return (self.nfet.c_gate_eff(self.vdd)
                + self.pfet.c_gate_eff(self.vdd))

    def output_capacitance(self) -> float:
        """Parasitic self-loading at the output node [F]."""
        return (self.nfet.capacitance.c_drain() + self.pfet.capacitance.c_drain())

    def load_capacitance(self, fanout: int = 1) -> float:
        """FO-``fanout`` load: receivers' input caps plus self-loading [F]."""
        if fanout < 0:
            raise ParameterError("fanout must be >= 0")
        return fanout * self.input_capacitance() + self.output_capacitance()

    def leakage_current(self) -> float:
        """Average standby leakage over the two input states [A].

        With ``V_in = 0`` the NFET leaks; with ``V_in = V_dd`` the PFET
        leaks; a long chain spends half its gates in each state.
        """
        i_n = self.nfet.i_off(self.vdd)
        i_p = self.pfet.i_off(self.vdd)
        return 0.5 * (i_n + i_p)

    def with_vdd(self, vdd: float) -> "Inverter":
        """Copy of this inverter at a different supply."""
        return Inverter(nfet=self.nfet, pfet=self.pfet, vdd=vdd)
