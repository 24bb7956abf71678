"""6T SRAM cell noise margins (extension, after the paper's ref [16]).

The paper flags SRAM as the circuit most exposed to S_S degradation:
"noise margins are paramount and a small I_on/I_off in sub-V_th
circuits already places tight limits on the maximum number of
bits/line".  This module models a 6T cell as two cross-coupled
inverters plus NFET access transistors and reports hold and read
butterfly SNM, so the scaling strategies can be compared on the
circuit the paper says matters most.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..device.mosfet import MOSFET, Polarity
from ..errors import ParameterError
from .batch import solve_balance_batch
from .inverter import Inverter
from .snm import butterfly_snm


@dataclass(frozen=True)
class SramCell:
    """A symmetric 6T SRAM cell.

    Parameters
    ----------
    pulldown / pullup:
        The inverter pair devices (NFET pull-down, PFET pull-up).
    access:
        The NFET access (pass-gate) transistor.
    vdd:
        Supply voltage [V].
    """

    pulldown: MOSFET
    pullup: MOSFET
    access: MOSFET
    vdd: float

    def __post_init__(self) -> None:
        if self.vdd <= 0.0:
            raise ParameterError("vdd must be positive")
        if self.pulldown.polarity is not Polarity.NFET:
            raise ParameterError("pulldown must be an NFET")
        if self.pullup.polarity is not Polarity.PFET:
            raise ParameterError("pullup must be a PFET")
        if self.access.polarity is not Polarity.NFET:
            raise ParameterError("access transistor must be an NFET")

    def inverter(self) -> Inverter:
        """The storage inverter (half of the cross-coupled pair)."""
        return Inverter(nfet=self.pulldown, pfet=self.pullup, vdd=self.vdd)

    # -- read-disturbed transfer -----------------------------------------------

    def read_vtc(self, n_points: int = 121,
                 xtol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
        """Read-disturbed VTC samples ``(vin, vout)``.

        During a read the wordline and both bitlines sit at V_dd; the
        access transistor fights the pull-down and lifts the low node.
        Current balance at the output node:

        ``I_N,pulldown(vin, vout) = I_P,pullup(vin, vout)
                                    + I_N,access(node -> bitline)``

        The access device's source is the storage node, drain the
        precharged bitline: ``V_gs = V_dd - V_out``, ``V_ds = V_dd - V_out``.
        The balance is solved for the whole input grid in one masked
        vectorised bisection.
        """
        vins = np.linspace(0.0, self.vdd, n_points)
        vdd = self.vdd

        all_points = np.arange(n_points)

        def balance(vout: np.ndarray, idx: np.ndarray = all_points
                    ) -> np.ndarray:
            v_pu = np.maximum(vdd - vout, 0.0)
            i_pd = self.pulldown.ids(vins[idx], np.maximum(vout, 0.0))
            i_pu = self.pullup.ids(vdd - vins[idx], v_pu)
            i_ax = self.access.ids(v_pu, v_pu)
            return i_pd - i_pu - i_ax

        lo = np.zeros_like(vins)
        hi = np.full_like(vins, vdd)
        f_lo, f_hi = balance(lo), balance(hi)
        at_lo = f_lo >= 0.0
        at_hi = (f_hi <= 0.0) & ~at_lo
        lo = np.where(at_hi, vdd, 0.0)
        hi = np.where(at_lo, 0.0, vdd)
        vouts = solve_balance_batch(balance, lo, hi, xtol=xtol)
        return vins, vouts


def hold_snm(cell: SramCell, n_points: int = 161) -> float:
    """Hold (standby) butterfly SNM of the cell [V]."""
    return butterfly_snm(cell.inverter().vtc(n_points))


def read_snm(cell: SramCell, n_points: int = 161) -> float:
    """Read butterfly SNM of the cell [V] (always <= hold SNM)."""
    return butterfly_snm(cell.read_vtc(n_points))


@dataclass(frozen=True)
class BitlineReadReport:
    """Read feasibility of one bitline configuration.

    The sub-V_th bitline problem (the paper's ref [16]): the accessed
    cell must develop a sense margin against the *aggregate* leakage of
    every unaccessed cell sharing the line, and the margin collapses as
    I_on/I_off shrinks.

    Attributes
    ----------
    n_bits:
        Cells on the bitline.
    i_read_a:
        Access current of the selected cell [A].
    i_leak_total_a:
        Worst-case aggregate leakage of the unselected cells [A].
    margin_ratio:
        ``i_read / i_leak_total`` — must exceed ~2 for reliable sensing.
    t_sense_s:
        Time to develop the sense swing on the bitline capacitance [s].
    """

    n_bits: int
    i_read_a: float
    i_leak_total_a: float
    margin_ratio: float
    t_sense_s: float

    @property
    def readable(self) -> bool:
        """True when the margin supports differential sensing."""
        return self.margin_ratio >= 2.0


def bitline_read(cell: SramCell, n_bits: int,
                 c_bitline_per_cell_f: float = 0.2e-15,
                 sense_swing_v: float = 0.05) -> BitlineReadReport:
    """Analyse a read on a bitline shared by ``n_bits`` cells.

    ``c_bitline_per_cell_f`` [f] is each cell's bitline loading and
    ``sense_swing_v`` [v] the differential swing the sense amplifier
    needs.  Worst case: every unaccessed cell stores the data polarity
    that leaks into the line while the accessed cell discharges it.
    """
    if n_bits < 1:
        raise ParameterError("need at least one cell on the line")
    if c_bitline_per_cell_f <= 0.0:
        raise ParameterError("bitline capacitance must be positive")
    if not 0.0 < sense_swing_v < cell.vdd:
        raise ParameterError("sense swing must be inside the rail")
    i_read = float(cell.access.ids(cell.vdd, cell.vdd / 2.0))
    i_leak = (n_bits - 1) * cell.access.i_off(cell.vdd)
    c_line = (n_bits * c_bitline_per_cell_f
              + cell.access.capacitance.c_drain())
    net = max(i_read - i_leak, 1e-30)
    return BitlineReadReport(
        n_bits=n_bits,
        i_read_a=i_read,
        i_leak_total_a=i_leak,
        margin_ratio=i_read / max(i_leak, 1e-30),
        t_sense_s=c_line * sense_swing_v / net,
    )


def max_bits_per_line(cell: SramCell, margin: float = 2.0,
                      n_max: int = 1 << 14) -> int:
    """Largest bitline population with read margin >= ``margin``.

    The paper: a small I_on/I_off "already places tight limits on the
    maximum number of bits/line" — this is that limit.
    """
    if margin <= 1.0:
        raise ParameterError("margin must exceed 1")
    i_read = float(cell.access.ids(cell.vdd, cell.vdd / 2.0))
    i_off = cell.access.i_off(cell.vdd)
    limit = int(i_read / (margin * i_off)) + 1
    return max(1, min(limit, n_max))
