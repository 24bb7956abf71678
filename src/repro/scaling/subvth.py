"""The proposed sub-V_th scaling flow (paper Section 3).

Per node the strategy keeps ``T_ox`` on the industrial 10 %/generation
trajectory and the junction/overlap parasitics on the 30 %/generation
node trajectory, pins ``I_off`` at 100 pA/µm across all generations,
and then co-optimises the gate length and doping profile:

* **doping, given a length** (:func:`optimize_doping_for_length`) —
  among all (N_sub, N_p,halo) pairs that meet the I_off target at this
  L_poly, pick the one with minimum S_S.  This is the paper's Fig. 7
  observation: at long channels the halo only hurts the slope, so the
  optimum backs the halo off as the channel lengthens.
* **length** (:class:`SubVthOptimizer`) — sweep L_poly and select the
  minimum of the energy factor ``C_L S_S^2`` (Eq. 8); the delay factor
  ``C_L S_S`` minimum is so shallow that the energy-optimal length
  costs almost nothing in speed (the paper's Fig. 8 argument).

The result reproduces Table 3: longer, slower-scaling gate lengths,
reduced doping, and an S_S that stays ~80 mV/dec down to 32nm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .. import perf
from ..circuit.inverter import Inverter
from ..device.mosfet import MOSFET, Polarity, nfet as build_nfet, pfet as build_pfet
from ..errors import OptimizationError
from .roadmap import NodeSpec, roadmap_nodes, sub_vth_ioff_target
from .strategy import DeviceDesign, DeviceFamily
from .supervth import N_SUB_BOUNDS, PFET_WIDTH_RATIO

#: Halo-to-substrate peak ratios scanned during doping optimisation.
HALO_RATIO_GRID: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0, 1.5, 2.25)
#: L_poly search range as multiples of the node's super-V_th L_poly.
LENGTH_RANGE: tuple[float, float] = (1.0, 3.2)
#: Supply used to evaluate/report sub-V_th designs [V].
SUB_VTH_EVAL_VDD: float = 0.30
#: The energy-factor landscape is extremely shallow around its minimum
#: (the paper makes the same observation for the delay factor).  Within
#: this relative tolerance of the minimum, the optimiser prefers the
#: *longest* gate — the flattest-S_S design — at negligible energy cost.
FLATNESS_TOLERANCE: float = 0.02
#: S_S near-ties during doping selection (relative) are broken toward
#: lower substrate doping, which minimises junction capacitance.
SS_TIE_TOLERANCE: float = 0.005


def _builder(polarity: Polarity):
    return build_nfet if polarity is Polarity.NFET else build_pfet


def _solve_substrate_for_ioff(node: NodeSpec, l_poly_nm: float,
                              halo_ratio: float, ioff_target: float,
                              polarity: Polarity, width_um: float,
                              vdd_leak: float) -> MOSFET | None:
    """Find N_sub (with N_p,halo = ratio * N_sub) meeting the I_off target.

    Returns ``None`` when no root exists in the doping bounds (that
    halo ratio cannot meet the target at this length).
    """
    build = _builder(polarity)

    def device(n_sub: float) -> MOSFET:
        return build(
            l_poly_nm=l_poly_nm,
            t_ox_nm=node.t_ox_nm,
            n_sub_cm3=n_sub,
            n_p_halo_cm3=halo_ratio * n_sub,
            width_um=width_um,
            reference_nm=node.l_poly_nm,
        )

    evaluated: dict[float, MOSFET] = {}

    def residual(log_n: float) -> float:
        perf.bump("optimizer.brentq_residual_evals")
        dev = device(10.0 ** log_n)
        evaluated[log_n] = dev
        return math.log(dev.i_off_per_um(vdd_leak) / ioff_target)

    lo, hi = (math.log10(b) for b in N_SUB_BOUNDS)
    if residual(lo) < 0.0 or residual(hi) > 0.0:
        return None
    log_n = brentq(residual, lo, hi, xtol=1e-12)
    # brentq's last evaluation is at the root it returns: reuse that
    # device instead of re-running the doping self-consistency solve.
    dev = evaluated.get(log_n)
    return device(10.0 ** log_n) if dev is None else dev


def optimize_doping_for_length(node: NodeSpec, l_poly_nm: float,
                               ioff_target: float | None = None,
                               polarity: Polarity = Polarity.NFET,
                               width_um: float = 1.0,
                               vdd_leak: float | None = None) -> MOSFET:
    """Minimum-S_S doping meeting the I_off target at a given gate length.

    This is the per-length doping co-optimisation behind the paper's
    Fig. 7 "optimized doping" curve and the inner loop of the sub-V_th
    strategy.

    Parameters
    ----------
    node:
        Node inputs (sets T_ox and the parasitic scale).
    l_poly_nm:
        Candidate gate length.
    ioff_target:
        Leakage target [A/µm]; defaults to the strategy's 100 pA/µm.
    vdd_leak:
        Drain bias for the leakage measurement; defaults to the node's
        nominal V_dd (leakage budgets are specified at full rail even
        for devices destined for sub-V_th use).

    The whole halo-ratio grid runs as one masked vectorised
    root-solve.
    """
    from . import batch as batch_mod
    target = sub_vth_ioff_target(node) if ioff_target is None else ioff_target
    bias = node.vdd_nominal if vdd_leak is None else vdd_leak
    batch_mod.reset_warm_starts()
    return batch_mod.optimize_doping_stack(
        node, [l_poly_nm], [(polarity, width_um)], HALO_RATIO_GRID,
        target, bias, SS_TIE_TOLERANCE)[0][0]


@dataclass(frozen=True)
class SubVthOptimizer:
    """Finds the energy-optimal gate length for one node.

    The figure of merit is the Eq. 8 energy factor ``C_L S_S^2`` with
    ``C_L`` the FO1 load of a symmetric inverter built from the
    per-length doping-optimised NFET/PFET pair.
    """

    node: NodeSpec
    ioff_target: float | None = None
    pfet_width_um: float = PFET_WIDTH_RATIO
    n_length_points: int = 9

    def design_for_length(self, l_poly_nm: float) -> DeviceDesign:
        """Doping-optimised device pair at one candidate length.

        The leakage target is enforced at the sub-V_th operating bias
        (``SUB_VTH_EVAL_VDD``) rather than at the nominal rail: a
        technology aimed at sub-V_th use specs I_off where it runs.
        This pins the 250 mV drive current across generations, which is
        what gives the strategy its graceful delay scaling (Fig. 11).
        """
        self._fresh_flow()
        return self._rows_for_lengths([l_poly_nm])[0][1]

    @staticmethod
    def _fresh_flow() -> None:
        """Start a flow invocation cache-state independent (see batch)."""
        from . import batch as batch_mod
        batch_mod.reset_warm_starts()

    def energy_factor(self, design: DeviceDesign) -> float:
        """``C_L S_S^2`` for one candidate design (arbitrary units)."""
        c_load = design.load_capacitance()
        ss = design.nfet.ss_v_per_dec
        return c_load * ss ** 2

    def delay_factor(self, design: DeviceDesign) -> float:
        """``C_L S_S`` (constant-I_off delay factor, Eq. 6)."""
        c_load = design.load_capacitance()
        return c_load * design.nfet.ss_v_per_dec

    def _rows_for_lengths(self, lengths_nm
                          ) -> list[tuple[float, DeviceDesign, float]]:
        """``(l_poly_nm, design, energy_factor)`` rows for a length grid.

        Solves the whole ``lengths x polarity x halo-ratio`` candidate
        stack in one masked bisection.
        """
        from . import batch as batch_mod
        lengths = [float(l) for l in lengths_nm]
        rows: list[tuple[float, DeviceDesign, float]] = []
        target = (sub_vth_ioff_target(self.node)
                  if self.ioff_target is None else self.ioff_target)
        jobs = [(Polarity.NFET, 1.0), (Polarity.PFET, self.pfet_width_um)]
        devices = batch_mod.optimize_doping_stack(
            self.node, lengths, jobs, HALO_RATIO_GRID, target,
            SUB_VTH_EVAL_VDD, SS_TIE_TOLERANCE)
        for l_poly, (n_dev, p_dev) in zip(lengths, devices):
            design = DeviceDesign(node=self.node, nfet=n_dev, pfet=p_dev,
                                  strategy="sub-vth", vdd=SUB_VTH_EVAL_VDD)
            rows.append((l_poly, design, self.energy_factor(design)))
        return rows

    def sweep(self) -> list[tuple[float, DeviceDesign, float]]:
        """Evaluate the length grid: ``(l_poly_nm, design, energy_factor)``."""
        self._fresh_flow()
        lengths = np.linspace(self.node.l_poly_nm * LENGTH_RANGE[0],
                              self.node.l_poly_nm * LENGTH_RANGE[1],
                              self.n_length_points)
        return self._rows_for_lengths(lengths)

    def optimize(self) -> DeviceDesign:
        """Grid search with a flatness-aware selection rule.

        The energy-factor landscape is extremely shallow around its
        minimum (the paper's Fig. 8 observation), so among all grid
        points within :data:`FLATNESS_TOLERANCE` of the minimum the
        *longest* gate is selected: it has the flattest S_S at
        negligible energy cost — the same argument the paper uses to
        pick the energy-optimal length over the delay-optimal one.
        A second, local grid refines the choice.
        """
        rows = self.sweep()
        chosen = self._select(rows)
        if chosen[0] == rows[-1][0] and len(rows) > 1:
            raise OptimizationError(
                f"{self.node.name}: energy factor still flat/falling at "
                f"{rows[-1][0]:.0f} nm; widen LENGTH_RANGE"
            )
        # Local refinement around the chosen length.
        step = rows[1][0] - rows[0][0] if len(rows) > 1 else 0.0
        if step > 0.0:
            lo = max(chosen[0] - step, rows[0][0])
            hi = min(chosen[0] + step, rows[-1][0])
            local = self._rows_for_lengths(np.linspace(lo, hi, 7))
            chosen = self._select(local, rows)
        return chosen[1]

    @staticmethod
    def _select(rows: list[tuple[float, DeviceDesign, float]],
                reference: list[tuple[float, DeviceDesign, float]] | None = None
                ) -> tuple[float, DeviceDesign, float]:
        """Longest-length row whose energy factor is within tolerance of the min.

        The minimum is taken over ``rows`` plus the optional
        ``reference`` grid so local refinement cannot drift away from
        the global floor.  Returns the winning row itself so the caller
        never has to re-find a design by float comparison on length.
        """
        pool = rows if reference is None else rows + reference
        floor = min(r[2] for r in pool)
        eligible = [r for r in rows if r[2] <= floor * (1.0 + FLATNESS_TOLERANCE)]
        if not eligible:
            eligible = [min(rows, key=lambda r: r[2])]
        return max(eligible, key=lambda r: r[0])


def build_sub_vth_family(include_130nm: bool = False,
                         ioff_target: float | None = None) -> DeviceFamily:
    """The paper's Table 3 device family.

    Each node's design uses the energy-optimal gate length and the
    minimum-S_S doping at the fixed 100 pA/µm leakage target.
    """
    designs = []
    for node in roadmap_nodes(include_130nm):
        optimizer = SubVthOptimizer(node, ioff_target=ioff_target)
        designs.append(optimizer.optimize())
    return DeviceFamily(strategy="sub-vth", designs=tuple(designs))
