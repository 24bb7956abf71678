"""The scalar nodal solver: the oracle behind the batched MNA twins.

A compact SPICE-core equivalent:

* **DC** — damped Newton on the nodal current-balance equations, with
  automatic ``gmin`` stepping when the raw system is ill-conditioned
  (deep-subthreshold circuits have node conductances spanning many
  decades).  Multiple stable states (e.g. an SRAM cell) are reached by
  seeding Newton with different initial guesses.
* **Transient** — backward Euler with Newton at each step and simple
  step-size control (halve on non-convergence, grow back on success).
  Backward Euler's strong damping is exactly what stiff subthreshold
  switching needs; accuracy is step-controlled by a local-change bound.

The Jacobian is assembled by per-element finite differences, which for
the handful-of-nodes circuits in this study is both robust and fast.
Production solves every netlist with
:mod:`repro.circuit.mna_batch`; this solver walks the netlist itself
and shares nothing with it past the netlist and the gmin ladder's
first rung, so the parity suites compare two independent engines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuit.mna_batch import _GMIN_START
from ..circuit.netlist import GROUND, Circuit
from ..errors import ConvergenceError, ParameterError

#: Perturbation for the finite-difference Jacobian [V].
_FD_STEP = 1e-7


@dataclass(frozen=True)
class DCResult:
    """A DC operating point.

    Attributes
    ----------
    voltages:
        node name -> voltage [V] (sources and ground included).
    iterations:
        Newton iterations used (summed over gmin steps).
    """

    voltages: dict[str, float]
    iterations: int

    def __getitem__(self, node: str) -> float:
        return self.voltages[node]


@dataclass(frozen=True)
class TransientResult:
    """A transient waveform set.

    Attributes
    ----------
    time_s:
        Time samples.
    voltages:
        node name -> waveform array aligned with ``time_s``.
    """

    time_s: np.ndarray
    voltages: dict[str, np.ndarray]

    def at(self, node: str, time_s: float) -> float:
        """Linearly interpolated node voltage [V] at ``time_s`` [s]."""
        return float(np.interp(time_s, self.time_s, self.voltages[node]))

    def crossing_time(self, node: str, level_v: float,
                      rising: bool | None = None) -> float:
        """First time the node crosses ``level_v`` [V], in [s].

        A waveform that starts exactly at the level and departs in the
        requested direction crosses at t = 0 (symmetric with the
        falling case, which the interpolation already resolved to 0).
        """
        wave = self.voltages[node]
        if wave[0] == level_v:
            off_level = np.flatnonzero(wave != level_v)
            if off_level.size:
                going_up = bool(wave[off_level[0]] > level_v)
                if rising is None or rising is going_up:
                    return 0.0
        above = wave >= level_v
        for i in range(1, wave.size):
            if above[i] == above[i - 1]:
                continue
            if rising is True and not above[i]:
                continue
            if rising is False and above[i]:
                continue
            t0, t1 = self.time_s[i - 1], self.time_s[i]
            v0, v1 = wave[i - 1], wave[i]
            return float(t0 + (level_v - v0) * (t1 - t0) / (v1 - v0))
        raise ParameterError(f"node {node!r} never crosses {level_v} V")


class NodalSolver:
    """DC / transient solver bound to one circuit."""

    def __init__(self, circuit: Circuit) -> None:
        circuit.validate()
        self.circuit = circuit
        self.unknowns = circuit.unknown_nodes()
        self.index = {n: i for i, n in enumerate(self.unknowns)}

    # -- assembly ----------------------------------------------------------------

    def _node_voltages(self, x: np.ndarray, time_s: float) -> dict[str, float]:
        volts = {GROUND: 0.0}
        for s in self.circuit.sources:
            volts[s.node] = s.value(time_s)
        for name, i in self.index.items():
            volts[name] = float(x[i])
        return volts

    def _residual(self, x: np.ndarray, time_s: float, gmin: float,
                  prev: dict[str, float] | None, dt: float | None
                  ) -> np.ndarray:
        """KCL residual at each unknown node (currents leaving = +)."""
        volts = self._node_voltages(x, time_s)
        f = np.zeros(len(self.unknowns))

        def add(node: str, current: float) -> None:
            i = self.index.get(node)
            if i is not None:
                f[i] += current

        for r in self.circuit.resistors:
            i_ab = (volts[r.node_a] - volts[r.node_b]) / r.ohms
            add(r.node_a, i_ab)
            add(r.node_b, -i_ab)
        for t in self.circuit.transistors:
            i_drain = t.current_into_drain(volts[t.drain], volts[t.gate],
                                           volts[t.source])
            # Current into the drain leaves the drain node's KCL surplus
            # and enters the source node.
            add(t.drain, i_drain)
            add(t.source, -i_drain)
        if dt is not None and prev is not None:
            # Backward-Euler companion model for each capacitor.
            for c in self.circuit.capacitors:
                dv_now = volts[c.node_a] - volts[c.node_b]
                dv_prev = prev[c.node_a] - prev[c.node_b]
                i_ab = c.farads * (dv_now - dv_prev) / dt
                add(c.node_a, i_ab)
                add(c.node_b, -i_ab)
        if gmin > 0.0:
            for name, i in self.index.items():
                f[i] += gmin * volts[name]
        return f

    def _jacobian(self, x: np.ndarray, time_s: float, gmin: float,
                  prev: dict[str, float] | None, dt: float | None
                  ) -> np.ndarray:
        n = len(self.unknowns)
        jac = np.zeros((n, n))
        base = self._residual(x, time_s, gmin, prev, dt)
        for j in range(n):
            bumped = x.copy()
            bumped[j] += _FD_STEP
            jac[:, j] = (self._residual(bumped, time_s, gmin, prev, dt)
                         - base) / _FD_STEP
        return jac

    # -- Newton -------------------------------------------------------------------

    def _newton(self, x0: np.ndarray, time_s: float, gmin: float,
                prev: dict[str, float] | None, dt: float | None,
                tol_v: float = 1e-9, max_iter: int = 80
                ) -> tuple[np.ndarray, int]:
        x = x0.copy()
        rail = self._rail_estimate(time_s)
        for iteration in range(1, max_iter + 1):
            residual = self._residual(x, time_s, gmin, prev, dt)
            jac = self._jacobian(x, time_s, gmin, prev, dt)
            try:
                update = np.linalg.solve(jac, -residual)
            except np.linalg.LinAlgError:
                raise ConvergenceError("singular nodal Jacobian",
                                       iterations=iteration)
            # Damp to a fraction of the rail per step.
            biggest = float(np.max(np.abs(update)))
            scale = min(1.0, 0.25 * max(rail, 0.1) / max(biggest, 1e-30))
            x = x + scale * update
            x = np.clip(x, -0.5, rail + 0.5)
            if biggest * scale < tol_v:
                return x, iteration
        raise ConvergenceError("nodal Newton did not converge",
                               iterations=max_iter)

    def _rail_estimate(self, time_s: float) -> float:
        values = [abs(s.value(time_s)) for s in self.circuit.sources]
        return max(values) if values else 1.0

    # -- public API ------------------------------------------------------------------

    def solve_dc(self, initial: dict[str, float] | None = None,
                 time_s: float = 0.0) -> DCResult:
        """DC operating point; ``initial`` seeds Newton (SRAM states).

        ``time_s`` [s] is the waveform evaluation time of the sources.
        A seeded solve first attempts direct Newton at ``gmin = 0`` so
        that a bistable circuit converges to the basin the seed lies in;
        the gmin continuation (which would steer every seed to the same
        continuation solution) is only a fallback for hard cold starts.
        """
        rail = self._rail_estimate(time_s)
        x0 = np.full(len(self.unknowns), 0.5 * rail)
        if initial:
            for node, value in initial.items():
                if node in self.index:
                    x0[self.index[node]] = value
        try:
            x, used = self._newton(x0.copy(), time_s, gmin=0.0,
                                   prev=None, dt=None)
            return DCResult(voltages=self._node_voltages(x, time_s),
                            iterations=used)
        except ConvergenceError:
            pass
        total_iter = 0
        gmin = _GMIN_START
        x = x0.copy()
        while True:
            x, used = self._newton(x, time_s, gmin, prev=None, dt=None)
            total_iter += used
            if gmin == 0:
                break
            gmin = 0.0 if gmin < 1e-12 else gmin * 1e-3
        return DCResult(voltages=self._node_voltages(x, time_s),
                        iterations=total_iter)

    def solve_transient(self, t_stop_s: float, dt_s: float,
                        initial: dict[str, float] | None = None,
                        use_initial_conditions: bool = False,
                        dt_min_factor: float = 1e-6,
                        max_change_v: float | None = None
                        ) -> TransientResult:
        """Backward-Euler transient.

        Parameters
        ----------
        t_stop_s / dt_s:
            Horizon and initial step [s].  The step halves on Newton
            failure (down to ``dt_s * dt_min_factor``) and recovers by
            1.5x on success, capped at the initial ``dt_s``.
        initial:
            Node -> voltage values.  By default they seed the starting
            DC solve; with ``use_initial_conditions`` they *are* the
            t = 0 state (SPICE's UIC), which is how one starts an RC
            charging experiment or kicks a ring oscillator.
        max_change_v:
            Optional accuracy bound [v]: a step whose largest node
            change exceeds this is retried at half the step.
        """
        if t_stop_s <= 0.0 or dt_s <= 0.0:
            raise ParameterError("t_stop_s and dt_s must be positive")
        if use_initial_conditions:
            x0 = np.zeros(len(self.unknowns))
            if initial:
                for node, value in initial.items():
                    if node in self.index:
                        x0[self.index[node]] = value
            start_voltages = self._node_voltages(x0, 0.0)
        else:
            start_voltages = self.solve_dc(initial=initial,
                                           time_s=0.0).voltages
        times = [0.0]
        waves = {n: [start_voltages[n]] for n in start_voltages}

        prev = dict(start_voltages)
        x = np.array([prev[n] for n in self.unknowns])
        t = 0.0
        step = dt_s
        min_step = dt_s * dt_min_factor
        while t < t_stop_s - 1e-18:
            step = min(step, t_stop_s - t)
            try:
                x_new, _ = self._newton(x.copy(), t + step, gmin=0.0,
                                        prev=prev, dt=step)
            except ConvergenceError:
                if step <= min_step:
                    raise
                step *= 0.5
                continue
            if max_change_v is not None and step > min_step:
                change = float(np.max(np.abs(
                    x_new - np.array([prev[n] for n in self.unknowns]))))
                if change > max_change_v:
                    step *= 0.5
                    continue
            t += step
            x = x_new
            prev = self._node_voltages(x, t)
            times.append(t)
            for node, value in prev.items():
                waves[node].append(value)
            step = min(step * 1.5, dt_s)
        return TransientResult(
            time_s=np.array(times),
            voltages={n: np.array(v) for n, v in waves.items()},
        )
