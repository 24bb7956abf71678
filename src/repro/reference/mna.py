"""Scalar nodal-oracle twins of the batched MNA engine and its flows.

The engine twins run every lane through
:class:`~repro.reference._nodal.NodalSolver`; the array, gate and
level-shifter flows are bound to them.  Each lane is a rebuilt scalar
circuit (shifted devices via ``with_vth_offset``); the engines share
nothing past the netlist.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .. import perf
from ..circuit import gate_netlists, level_shifter, sram_array
from ..circuit.compile import CompiledCircuit, compile_circuit
from ..circuit.mna_batch import (
    BatchDCResult,
    BatchTransientResult,
    Stimulus,
    _as_lanes,
    _batch_shape,
    _FixedPlan,
)
from ..circuit.netlist import Circuit
from ..device.mosfet import Polarity
from ..errors import ParameterError
from ._nodal import NodalSolver
from ._rebind import rebind
from .circuit import butterfly_snm


def solve_dc_batch(circuit: Circuit, *, stimulus: Stimulus | None = None,
                   dvth_n_v: object = 0.0, dvth_p_v: object = 0.0,
                   initial: Mapping[str, object] | None = None,
                   time_s: float = 0.0,
                   compiled: CompiledCircuit | None = None
                   ) -> BatchDCResult:
    """DC operating points, one scalar solve per lane; ``dvth_n_v`` /
    ``dvth_p_v`` [v] and ``time_s`` [s] as in the twin."""
    compiled = compiled or compile_circuit(circuit)
    batch_shape = _batch_shape(stimulus, dvth_n_v, dvth_p_v, initial,
                               time_s)
    plan = _FixedPlan(compiled, stimulus, batch_shape)
    names = compiled.node_names
    volts = np.zeros((len(names), plan.lanes))
    currents = np.zeros((len(circuit.sources), plan.lanes))
    iterations = 0
    for lane, lane_c, seed in _lane_problems(circuit, compiled, plan,
                                             dvth_n_v, dvth_p_v, initial):
        result = NodalSolver(lane_c).solve_dc(initial=seed, time_s=time_s)
        iterations += result.iterations
        for i, name in enumerate(names):
            volts[i, lane] = result.voltages[name]
        for k, s in enumerate(circuit.sources):
            currents[k, lane] = _scalar_source_current(lane_c, s.node,
                                                       result.voltages)
    voltages = {name: volts[i].reshape(batch_shape).copy()
                for i, name in enumerate(names)}
    currents_map = {s.name: currents[k].reshape(batch_shape).copy()
                    for k, s in enumerate(circuit.sources)}
    return BatchDCResult(batch_shape=batch_shape, voltages=voltages,
                         source_currents_a=currents_map,
                         iterations=iterations)


def solve_transient_batch(circuit: Circuit, t_stop_s: float, dt_s: float,
                          *, stimulus: Stimulus | None = None,
                          dvth_n_v: object = 0.0, dvth_p_v: object = 0.0,
                          initial: Mapping[str, object] | None = None,
                          use_initial_conditions: bool = False,
                          dt_min_factor: float = 1e-6,
                          max_change_v: float | None = None,
                          compiled: CompiledCircuit | None = None
                          ) -> BatchTransientResult:
    """Per-lane scalar transients, resampled onto one shared grid.

    The scalar controller adapts its step per lane, so lane grids
    differ; waveforms are linearly interpolated onto a uniform
    ``dt_s`` [s] grid up to ``t_stop_s`` [s] (the batched twin keeps
    its own native grid — comparisons interpolate, as the equivalence
    tests do).  ``dvth_n_v`` / ``dvth_p_v`` / ``max_change_v`` [v] as
    in the twin.
    """
    if t_stop_s <= 0.0 or dt_s <= 0.0:
        raise ParameterError("t_stop_s and dt_s must be positive")
    compiled = compiled or compile_circuit(circuit)
    batch_shape = _batch_shape(stimulus, dvth_n_v, dvth_p_v, initial, 0.0)
    plan = _FixedPlan(compiled, stimulus, batch_shape)
    names = compiled.node_names
    grid = np.arange(0.0, t_stop_s + 0.5 * dt_s, dt_s)
    grid[-1] = min(grid[-1], t_stop_s)
    waves = np.zeros((grid.size, len(names), plan.lanes))
    for lane, lane_c, seed in _lane_problems(circuit, compiled, plan,
                                             dvth_n_v, dvth_p_v, initial):
        result = NodalSolver(lane_c).solve_transient(
            t_stop_s, dt_s, initial=seed,
            use_initial_conditions=use_initial_conditions,
            dt_min_factor=dt_min_factor, max_change_v=max_change_v)
        for i, name in enumerate(names):
            waves[:, i, lane] = np.interp(grid, result.time_s,
                                          result.voltages[name])
    shape = (grid.size,) + batch_shape
    return BatchTransientResult(
        time_s=grid,
        voltages={name: waves[:, i].reshape(shape).copy()
                  for i, name in enumerate(names)},
        batch_shape=batch_shape,
    )


def _lane_problems(circuit: Circuit, compiled: CompiledCircuit,
                   plan: _FixedPlan, dvth_n_v: object, dvth_p_v: object,
                   initial: Mapping[str, object] | None):
    """``(lane, scalar circuit, seed)`` for every lane of the batch."""
    shape = plan.batch_shape
    for lane in range(plan.lanes):
        perf.bump("circuit.mna.sequential_solves")
        lane_c = _lane_circuit(circuit, compiled, plan,
                               _lane_scalar(dvth_n_v, shape, lane),
                               _lane_scalar(dvth_p_v, shape, lane), lane)
        seed = {node: _lane_scalar(value, shape, lane)
                for node, value in (initial or {}).items()}
        yield lane, lane_c, seed or None


def _lane_waveform(plan: _FixedPlan, pos: int, lane: int
                   ) -> Callable[[float], float] | None:
    """A scalar waveform for one lane of one stimulus override."""
    for p, value in plan.overrides:
        if p == pos:
            if callable(value):
                return lambda t, f=value: float(
                    _as_lanes(f(t), plan.batch_shape)[lane])
            return lambda _t, v=float(_as_lanes(
                value, plan.batch_shape)[lane]): v
    return None


def _lane_circuit(circuit: Circuit, compiled: CompiledCircuit,
                  plan: _FixedPlan, shift_n: float, shift_p: float,
                  lane: int) -> Circuit:
    """The lane's scalar circuit: overridden sources, shifted devices."""
    lane_c = Circuit()
    for s in circuit.sources:
        pos = compiled.source_position[s.name]
        waveform = _lane_waveform(plan, pos, lane) or s.waveform
        lane_c.add_vsource(s.name, s.node, waveform)
    for r in circuit.resistors:
        lane_c.add_resistor(r.name, r.node_a, r.node_b, r.ohms)
    for c in circuit.capacitors:
        lane_c.add_capacitor(c.name, c.node_a, c.node_b, c.farads)
    for tr in circuit.transistors:
        shift = (shift_n if tr.device.polarity is Polarity.NFET
                 else shift_p)
        dev = tr.device
        if shift != 0:
            dev = dev.with_vth_offset(dev.vth_offset_v + shift)
        lane_c.add_mosfet(tr.name, tr.drain, tr.gate, tr.source, dev)
    return lane_c


def _lane_scalar(value: object, batch_shape: tuple[int, ...], lane: int
                 ) -> float:
    return float(_as_lanes(value, batch_shape)[lane])


def _scalar_source_current(circuit: Circuit, node: str,
                           volts: Mapping[str, float]) -> float:
    """Current [A] the source driving ``node`` injects, from element
    currents at the solved operating point."""
    total = 0.0
    for r in circuit.resistors:
        if node in (r.node_a, r.node_b):
            i_ab = (volts[r.node_a] - volts[r.node_b]) / r.ohms
            total += i_ab if node == r.node_a else -i_ab
    for t in circuit.transistors:
        if node in (t.drain, t.source):
            i_d = t.current_into_drain(volts[t.drain], volts[t.gate],
                                       volts[t.source])
            if node == t.drain:
                total += i_d
            if node == t.source:
                total -= i_d
    return total


gate_leakage = rebind(gate_netlists.gate_leakage,
                      solve_dc_batch=solve_dc_batch)

gate_delay = rebind(gate_netlists.gate_delay,
                    solve_transient_batch=solve_transient_batch)

bitline_leakage_vs_height = rebind(sram_array.bitline_leakage_vs_height,
                                   solve_dc_batch=solve_dc_batch)

_probe_vtc = rebind(sram_array._probe_vtc, solve_dc_batch=solve_dc_batch)

loaded_read_snm = rebind(sram_array.loaded_read_snm, _probe_vtc=_probe_vtc,
                         butterfly_snm=butterfly_snm)

write_trip_voltage = rebind(sram_array.write_trip_voltage,
                            solve_transient_batch=solve_transient_batch)

min_write_pulse = rebind(sram_array.min_write_pulse,
                         solve_transient_batch=solve_transient_batch)


class LevelShifter(level_shifter.LevelShifter):
    """:class:`repro.circuit.LevelShifter`, one scalar transient per input."""

    def output_levels(self, vin: float) -> tuple[float, float]:
        """Settled (out, outb) after an input edge to ``vin`` [V], from
        the opposite output state, by one scalar transient."""
        if not 0.0 <= vin <= self.vdd_low:
            raise ParameterError("vin outside the low domain")
        circuit = self._build(vin)
        solver = NodalSolver(circuit)
        high_input = vin > self.vdd_low / 2.0
        start = {"out": 0.0 if high_input else self.vdd_high,
                 "outb": self.vdd_high if high_input else 0.0,
                 "inb": self.vdd_low - vin}
        horizon = self._horizon_s()
        result = solver.solve_transient(
            horizon, horizon / 400.0, initial=start,
            use_initial_conditions=True,
        )
        return (float(result.voltages["out"][-1]),
                float(result.voltages["outb"][-1]))

    def converts_correctly(self, margin: float = 0.10) -> bool:
        """True when both input states, settled one at a time, produce
        full-swing outputs (``margin`` as a fraction of V_dd,high)."""
        return self._full_swing(self.output_levels(self.vdd_low),
                                self.output_levels(0.0), margin)


def min_convertible_vdd(shifter: level_shifter.LevelShifter,
                        lo: float = 0.08, hi: float | None = None,
                        tol: float = 0.005) -> float:
    """The production bisection over scalar-transient verdicts.

    Lowest input supply [V] the shifter still converts from, with
    ``lo`` / ``hi`` / ``tol`` in [V].
    """
    return level_shifter.min_convertible_vdd(LevelShifter(**vars(shifter)),
                                             lo=lo, hi=hi, tol=tol)
