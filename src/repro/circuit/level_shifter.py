"""Sub-V_th to nominal-rail level shifter (DCVS topology).

Any deployment of the paper's sub-V_th cores must talk to IO and
memory at the nominal rail, and the conventional cross-coupled (DCVS)
level shifter is the canonical interface: two NFETs driven from the
low domain fight a cross-coupled PFET pair tied to the high rail.  It
fails exactly when the sub-V_th input can no longer overpower the
high-rail PFET — making the *minimum convertible input supply* a
figure of merit of the low-voltage device's drive.

The circuit is solved with the library's batched MNA engine: both
input states of one input supply settle as two lanes of a single
transient.  The search for the minimum working input supply is a
serial bisection over supplies — each candidate sets its own settling
horizon, so candidates cannot share one lane grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..device.mosfet import MOSFET, Polarity
from ..errors import ParameterError
from .mna_batch import FloatArray, solve_transient_batch
from .netlist import Circuit

#: Output-node capacitance used for the settling transient [F].
NODE_CAP_F = 2e-15


@dataclass(frozen=True)
class LevelShifter:
    """A DCVS level shifter between two supply domains.

    Parameters
    ----------
    nfet / pfet:
        The device pair; pull-down NFETs run from the low domain's
        logic levels, the cross-coupled PFETs hang on the high rail.
    vdd_low / vdd_high:
        Input (sub-V_th) and output (nominal) supplies [V].
    nfet_width_um:
        Pull-down sizing; DCVS shifters conventionally upsize the
        NFETs to win the contention.
    """

    nfet: MOSFET
    pfet: MOSFET
    vdd_low: float
    vdd_high: float
    nfet_width_um: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 < self.vdd_low <= self.vdd_high:
            raise ParameterError("need 0 < vdd_low <= vdd_high")
        if self.nfet.polarity is not Polarity.NFET:
            raise ParameterError("nfet argument must be an NFET")
        if self.pfet.polarity is not Polarity.PFET:
            raise ParameterError("pfet argument must be a PFET")
        if self.nfet_width_um <= 0.0:
            raise ParameterError("pull-down width must be positive")

    # -- circuit assembly ---------------------------------------------------

    def _build(self, vin: float) -> Circuit:
        """The netlist with its input source at ``vin`` [V]."""
        c = Circuit()
        c.add_vsource("vddh", "vddh", self.vdd_high)
        c.add_vsource("vddl", "vddl", self.vdd_low)
        c.add_vsource("vin", "in", vin)
        # Low-domain inverter generates the complement.
        c.add_inverter("lowinv", "in", "inb", "vddl", self.nfet, self.pfet)
        # Output stage: upsized pull-downs, cross-coupled PFETs.
        pd = self.nfet.with_width_um(self.nfet_width_um)
        c.add_mosfet("mn1", "outb", "in", "0", pd)
        c.add_mosfet("mn2", "out", "inb", "0", pd)
        c.add_mosfet("mp1", "outb", "out", "vddh", self.pfet)
        c.add_mosfet("mp2", "out", "outb", "vddh", self.pfet)
        # Node capacitances make the contention dynamics well-posed.
        for node in ("out", "outb", "inb"):
            c.add_capacitor(f"c_{node}", node, "0", NODE_CAP_F)
        return c

    def _settle(self, vins: FloatArray) -> tuple[FloatArray, FloatArray]:
        """Settled (out, outb) [V] after an input edge to each of
        ``vins`` [V]: one netlist, one transient lane per input, each
        lane starting from the output state opposite to its input."""
        high_input = vins > self.vdd_low / 2.0
        start = {"out": np.where(high_input, 0.0, self.vdd_high),
                 "outb": np.where(high_input, self.vdd_high, 0.0),
                 "inb": self.vdd_low - vins}
        horizon = self._horizon_s()
        result = solve_transient_batch(
            self._build(0.0), horizon, horizon / 400.0,
            stimulus={"vin": vins}, initial=start,
            use_initial_conditions=True)
        return result.voltages["out"][-1], result.voltages["outb"][-1]

    def _horizon_s(self) -> float:
        """Settling horizon [s]: 60 time constants of the pull-down
        discharging a node cap through the low-domain gate drive (at
        half-rail drain bias)."""
        pd = self.nfet.with_width_um(self.nfet_width_um)
        drive = max(float(pd.ids(self.vdd_low, self.vdd_high / 2.0)), 1e-15)
        tau = NODE_CAP_F * self.vdd_high / drive
        return 60.0 * tau

    def _full_swing(self, high: tuple[float, float],
                    low: tuple[float, float], margin: float) -> bool:
        """Whether the settled (out, outb) [V] after a high and a low
        input sit within ``margin`` x V_dd,high of their rails."""
        rail = self.vdd_high
        return bool(high[0] > (1.0 - margin) * rail
                    and high[1] < margin * rail
                    and low[0] < margin * rail
                    and low[1] > (1.0 - margin) * rail)

    # -- analysis ----------------------------------------------------------------

    def output_levels(self, vin: float) -> tuple[float, float]:
        """Settled (out, outb) after an input edge to ``vin`` [V].

        The transient starts from the *opposite* output state — the
        situation right after an input transition — so a correct final
        state demonstrates the pull-downs genuinely win the contention
        (a cross-coupled stage has a stable wrong state whenever the
        input device is too weak; static DC seeding would just pick a
        basin).
        """
        if not 0.0 <= vin <= self.vdd_low:
            raise ParameterError("vin outside the low domain")
        out, outb = self._settle(np.array([vin]))
        return float(out[0]), float(outb[0])

    def converts_correctly(self, margin: float = 0.10) -> bool:
        """True when both input states produce full-swing outputs.

        ``margin`` is the allowed deviation from the rails as a
        fraction of V_dd,high.  Both input states settle in one
        two-lane transient.
        """
        (out_hi, out_lo), (outb_hi, outb_lo) = self._settle(
            np.array([self.vdd_low, 0.0]))
        return self._full_swing((out_hi, outb_hi), (out_lo, outb_lo),
                                margin)

    def with_vdd_low(self, vdd_low: float) -> "LevelShifter":
        """Copy at a different input supply [V]."""
        return replace(self, vdd_low=vdd_low)


def min_convertible_vdd(shifter: LevelShifter, lo: float = 0.08,
                        hi: float | None = None, tol: float = 0.005
                        ) -> float:
    """Lowest input supply the shifter still converts from [V].

    Bisection over :meth:`LevelShifter.converts_correctly`.  Raises
    when even ``hi`` fails (undersized pull-downs) — callers should
    then raise ``nfet_width_um``.
    """
    upper = shifter.vdd_low if hi is None else hi
    if not shifter.with_vdd_low(upper).converts_correctly():
        raise ParameterError(
            f"shifter fails even at vdd_low = {upper:.3f} V; "
            "increase nfet_width_um"
        )
    if shifter.with_vdd_low(lo).converts_correctly():
        return lo
    low, high = lo, upper
    while high - low > tol:
        mid = 0.5 * (low + high)
        if shifter.with_vdd_low(mid).converts_correctly():
            high = mid
        else:
            low = mid
    return high
