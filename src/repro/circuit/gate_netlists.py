"""Transistor-level gate netlists for the batched MNA engine.

:mod:`repro.circuit.gates` reduces NAND/NOR to an *equivalent
inverter* — a first-order analytic stand-in.  This module builds the
real topologies (series stacks, parallel pull-ups, transmission-gate
muxes) as :class:`~repro.circuit.netlist.Circuit` objects and
characterises them with :mod:`repro.circuit.mna_batch`, so input
vectors and (ΔV_th,n, ΔV_th,p) variation corners are batch lanes of
one compiled solve:

* **state-dependent leakage** — the supply current of every input
  vector in one batched DC solve.  The classic stacking effect falls
  out: a NAND2 with *both* inputs low leaks less than with either
  alone, because the internal stack node rises, reverse-biasing the
  top device and killing its DIBL — a second-order effect the
  equivalent-inverter reduction cannot see.
* **switching delay** — a batched transient of an input step into a
  capacitively loaded output, per corner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
import numpy.typing as npt

from ..device.mosfet import MOSFET
from ..errors import ParameterError
from .mna_batch import solve_dc_batch, solve_transient_batch
from .netlist import Circuit, GROUND

__all__ = ["GateNetlist", "nand2_netlist", "nor2_netlist", "mux2_netlist",
           "gate_leakage", "gate_delay"]

FloatArray = npt.NDArray[np.float64]


@dataclass(frozen=True)
class GateNetlist:
    """A static CMOS gate as a solvable netlist.

    ``inputs`` are the input *source names* (drive them through the
    batched ``stimulus``); ``output`` is the output node.  The output
    carries ``c_load_f`` of load so transients have a time constant.
    """

    name: str
    circuit: Circuit
    inputs: tuple[str, ...]
    output: str
    vdd: float
    nfet_unit: MOSFET
    pfet_unit: MOSFET
    c_load_f: float

    def time_scale_s(self) -> float:
        """Characteristic output slew time [s]: the load swung a rail
        at the weaker device's on current."""
        i_drive = min(self.nfet_unit.i_on(self.vdd),
                      self.pfet_unit.i_on(self.vdd))
        return self.c_load_f * self.vdd / i_drive


def _default_load_f(nfet_unit: MOSFET, pfet_unit: MOSFET,
                    vdd: float) -> float:
    """FO1-style load [F]: one like-sized inverter's input capacitance."""
    return nfet_unit.c_gate_eff(vdd) + pfet_unit.c_gate_eff(vdd)


def _start(name: str, vdd: float, inputs: tuple[str, ...],
           nfet_unit: MOSFET, pfet_unit: MOSFET,
           c_load_f: float | None) -> tuple[Circuit, float]:
    if vdd <= 0.0:
        raise ParameterError("vdd must be positive")
    load = (_default_load_f(nfet_unit, pfet_unit, vdd)
            if c_load_f is None else c_load_f)
    if load <= 0.0:
        raise ParameterError("c_load_f must be positive")
    c = Circuit()
    c.add_vsource("vdd", "vdd", vdd)
    for pin in inputs:
        c.add_vsource(pin, pin, 0.0)
    c.add_capacitor("cload", "y", GROUND, load)
    return c, load


def nand2_netlist(nfet_unit: MOSFET, pfet_unit: MOSFET, vdd: float, *,
                  c_load_f: float | None = None) -> GateNetlist:
    """2-input NAND: parallel PFET pull-ups, series NFET stack.

    Inputs ``a`` (stack top) and ``b`` (stack bottom); output ``y``;
    internal stack node ``x``.  ``c_load_f`` [f] defaults to one
    like-sized inverter input capacitance (FO1).
    """
    c, load = _start("nand2", vdd, ("a", "b"), nfet_unit, pfet_unit,
                     c_load_f)
    c.add_mosfet("mpa", "y", "a", "vdd", pfet_unit)
    c.add_mosfet("mpb", "y", "b", "vdd", pfet_unit)
    c.add_mosfet("mna", "y", "a", "x", nfet_unit)
    c.add_mosfet("mnb", "x", "b", GROUND, nfet_unit)
    return GateNetlist(name="nand2", circuit=c, inputs=("a", "b"),
                       output="y", vdd=vdd, nfet_unit=nfet_unit,
                       pfet_unit=pfet_unit, c_load_f=load)


def nor2_netlist(nfet_unit: MOSFET, pfet_unit: MOSFET, vdd: float, *,
                 c_load_f: float | None = None) -> GateNetlist:
    """2-input NOR: series PFET stack, parallel NFET pull-downs.

    Inputs ``a`` (stack top, at the rail) and ``b``; output ``y``;
    internal stack node ``x``.  ``c_load_f`` [f] defaults to FO1.
    """
    c, load = _start("nor2", vdd, ("a", "b"), nfet_unit, pfet_unit,
                     c_load_f)
    c.add_mosfet("mpa", "x", "a", "vdd", pfet_unit)
    c.add_mosfet("mpb", "y", "b", "x", pfet_unit)
    c.add_mosfet("mna", "y", "a", GROUND, nfet_unit)
    c.add_mosfet("mnb", "y", "b", GROUND, nfet_unit)
    return GateNetlist(name="nor2", circuit=c, inputs=("a", "b"),
                       output="y", vdd=vdd, nfet_unit=nfet_unit,
                       pfet_unit=pfet_unit, c_load_f=load)


def mux2_netlist(nfet_unit: MOSFET, pfet_unit: MOSFET, vdd: float, *,
                 c_load_f: float | None = None) -> GateNetlist:
    """2:1 transmission-gate mux with an internal select inverter.

    Inputs ``d0``, ``d1`` (data) and ``sel``; output ``y`` follows
    ``d0`` when ``sel`` is low, ``d1`` when high.  The complement
    ``selb`` is generated by an on-gate inverter, as a standard-cell
    mux would.  ``c_load_f`` [f] defaults to FO1.
    """
    c, load = _start("mux2", vdd, ("d0", "d1", "sel"), nfet_unit,
                     pfet_unit, c_load_f)
    c.add_mosfet("msn", "selb", "sel", GROUND, nfet_unit)
    c.add_mosfet("msp", "selb", "sel", "vdd", pfet_unit)
    c.add_mosfet("mt0n", "y", "selb", "d0", nfet_unit)
    c.add_mosfet("mt0p", "y", "sel", "d0", pfet_unit)
    c.add_mosfet("mt1n", "y", "sel", "d1", nfet_unit)
    c.add_mosfet("mt1p", "y", "selb", "d1", pfet_unit)
    return GateNetlist(name="mux2", circuit=c,
                       inputs=("d0", "d1", "sel"), output="y", vdd=vdd,
                       nfet_unit=nfet_unit, pfet_unit=pfet_unit,
                       c_load_f=load)


def gate_leakage(gate: GateNetlist,
                 inputs: Mapping[str, object] | None = None, *,
                 dvth_n_v: object = 0.0, dvth_p_v: object = 0.0
                 ) -> FloatArray:
    """Standby supply current [A] per input vector and corner.

    ``inputs`` maps input names to per-lane voltages [v] (broadcast
    together with the ``dvth_n_v`` / ``dvth_p_v`` corner shifts [v] —
    e.g. every input vector of a truth table as one batch axis);
    unmentioned inputs sit at 0.  Returns the current the rail source
    delivers, batch-shaped.
    """
    stimulus: dict[str, object] = {}
    for pin, value in (inputs or {}).items():
        if pin not in gate.inputs:
            raise ParameterError(
                f"unknown input {pin!r}; gate has {gate.inputs}")
        stimulus[pin] = value
    result = solve_dc_batch(gate.circuit, stimulus=stimulus,
                            dvth_n_v=dvth_n_v, dvth_p_v=dvth_p_v)
    return np.asarray(result.source_currents_a["vdd"])


def gate_delay(gate: GateNetlist, switch_input: str, *,
               held: Mapping[str, float] | None = None,
               rise: bool = True, n_steps: int = 160,
               horizon_taus: float = 40.0, dvth_n_v: object = 0.0,
               dvth_p_v: object = 0.0) -> FloatArray:
    """Propagation delay [s] of an input step, per variation corner.

    ``switch_input`` steps (up if ``rise``, else down) a tenth of the
    way into a ``horizon_taus`` x :meth:`GateNetlist.time_scale_s`
    window while ``held`` pins the other inputs [v] and ``dvth_n_v`` /
    ``dvth_p_v`` [v] span the variation corners; the delay is the
    step-to-output 50 % crossing.  Lanes whose output never crosses
    (a non-controlling input combination) report ``nan``.
    """
    if switch_input not in gate.inputs:
        raise ParameterError(
            f"unknown input {switch_input!r}; gate has {gate.inputs}")
    vdd = gate.vdd
    t_stop = horizon_taus * gate.time_scale_s()
    t_step = 0.1 * t_stop

    def step(t: float) -> float:
        after = t >= t_step
        return (vdd if after else 0.0) if rise else (0.0 if after else vdd)

    stimulus: dict[str, object] = {switch_input: step}
    for pin, value in (held or {}).items():
        if pin not in gate.inputs:
            raise ParameterError(
                f"unknown input {pin!r}; gate has {gate.inputs}")
        stimulus[pin] = value
    result = solve_transient_batch(
        gate.circuit, t_stop, t_stop / n_steps, stimulus=stimulus,
        dvth_n_v=dvth_n_v, dvth_p_v=dvth_p_v)
    crossings = result.crossing_times(gate.output, 0.5 * vdd)
    delay = crossings - t_step
    return np.asarray(np.where(np.isnan(crossings) | (delay < 0.0),
                               np.nan, delay))
