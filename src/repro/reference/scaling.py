"""Scalar references for the scaling flows (paper Tables 2 and 3).

Each name mirrors its production twin in :mod:`repro.scaling`: the
per-candidate ``brentq`` doping solves of the super-V_th and sub-V_th
optimisers, the families and flavour menus built from them, and the
per-design ``brentq`` V_th,sat column of the table rows.  Scalar
MOSFETs are built at every residual evaluation.
"""

from __future__ import annotations

import math

from scipy.optimize import brentq

from .. import perf
from ..device.mosfet import MOSFET, Polarity
from ..errors import OptimizationError
from ..scaling import sensitivity, strategy, subvth, supervth
from ..scaling.multivth import FLAVOURS, VthFlavour, _flavour_menu
from ..scaling.roadmap import NodeSpec, roadmap_nodes, sub_vth_ioff_target
from ..scaling.strategy import DeviceDesign
from ..scaling.subvth import (
    HALO_RATIO_GRID,
    SS_TIE_TOLERANCE,
    SUB_VTH_EVAL_VDD,
    _solve_substrate_for_ioff,
)
from ..scaling.supervth import N_HALO_BOUNDS, N_SUB_BOUNDS, PFET_WIDTH_RATIO
from ._rebind import rebind


class SuperVthOptimizer(supervth.SuperVthOptimizer):
    """:class:`repro.scaling.SuperVthOptimizer` with scalar ``brentq``
    root solves."""

    def _ioff_per_um(self, device: MOSFET) -> float:
        return device.i_off_per_um(self.node.vdd_nominal)

    def solve_substrate(self) -> float:
        """Step 1: N_sub from the long-channel leakage condition."""
        target = self.node.ioff_target_a_per_um
        long_l = supervth.LONG_CHANNEL_MULTIPLE * self.node.l_poly_nm

        def residual(log_n: float) -> float:
            perf.bump("optimizer.brentq_residual_evals")
            dev = self._device(10.0 ** log_n, 0.0, l_poly_nm=long_l)
            return math.log(self._ioff_per_um(dev) / target)

        lo, hi = (math.log10(b) for b in N_SUB_BOUNDS)
        r_lo, r_hi = residual(lo), residual(hi)
        if r_lo < 0.0:
            raise OptimizationError(
                f"{self.node.name}: long-channel leakage below target even "
                "at minimum doping — budget unreachable from above"
            )
        if r_hi > 0.0:
            raise OptimizationError(
                f"{self.node.name}: cannot meet leakage budget "
                f"{target:.3g} A/um with N_sub <= {N_SUB_BOUNDS[1]:.3g}"
            )
        return 10.0 ** brentq(residual, lo, hi, xtol=1e-12)

    def solve_halo(self, n_sub: float) -> float:
        """Step 2: N_p,halo from the short-channel leakage condition."""
        return self._solve_halo(n_sub)[0]

    def _solve_halo(self, n_sub: float) -> tuple[float, MOSFET | None]:
        """Halo solve returning the device built at the root, if any.

        The final residual evaluation already constructed the
        converged device; handing it back lets :meth:`optimize` skip
        one halo/depletion self-consistency solve.
        """
        target = self.node.ioff_target_a_per_um
        evaluated: dict[float, MOSFET] = {}

        def residual(log_n: float) -> float:
            perf.bump("optimizer.brentq_residual_evals")
            dev = self._device(n_sub, 10.0 ** log_n)
            evaluated[log_n] = dev
            return math.log(self._ioff_per_um(dev) / target)

        lo, hi = (math.log10(b) for b in N_HALO_BOUNDS)
        if residual(lo) <= 0.0:
            # The short device already meets the budget: no halo needed.
            dev = evaluated[lo]
            if dev.profile.n_p_halo_cm3 != N_HALO_BOUNDS[0]:
                dev = None  # 10**log10 round trip missed the bound
            return N_HALO_BOUNDS[0], dev
        if residual(hi) > 0.0:
            raise OptimizationError(
                f"{self.node.name}: halo cannot rescue the short-channel "
                "leakage — L_poly too short for this T_ox"
            )
        log_root = brentq(residual, lo, hi, xtol=1e-12)
        return 10.0 ** log_root, evaluated.get(log_root)

    def optimize(self) -> MOSFET:
        """Run the full Fig. 1(c) loop and return the optimised device."""
        n_sub = self.solve_substrate()
        n_p_halo, dev = self._solve_halo(n_sub)
        if dev is not None and dev.profile.n_p_halo_cm3 == n_p_halo:
            return dev
        return self._device(n_sub, n_p_halo)


def build_super_vth_design(node: NodeSpec,
                           pfet_width_um: float = PFET_WIDTH_RATIO
                           ) -> DeviceDesign:
    """Optimise the NFET/PFET pair for one node, one device at a time."""
    n_dev = SuperVthOptimizer(node, Polarity.NFET, width_um=1.0).optimize()
    p_dev = SuperVthOptimizer(node, Polarity.PFET,
                              width_um=pfet_width_um).optimize()
    return DeviceDesign(node=node, nfet=n_dev, pfet=p_dev,
                        strategy="super-vth", vdd=node.vdd_nominal)


def build_super_vth_family(include_130nm: bool = False
                           ) -> strategy.DeviceFamily:
    """The paper's Table 2 device family, one node at a time."""
    designs = tuple(build_super_vth_design(node)
                    for node in roadmap_nodes(include_130nm))
    return strategy.DeviceFamily(strategy="super-vth", designs=designs)


def optimize_doping_for_length(node: NodeSpec, l_poly_nm: float,
                               ioff_target: float | None = None,
                               polarity: Polarity = Polarity.NFET,
                               width_um: float = 1.0,
                               vdd_leak: float | None = None) -> MOSFET:
    """Minimum-S_S doping meeting the I_off target at ``l_poly_nm``
    [nm], one ``brentq`` substrate solve per halo ratio; ``vdd_leak``
    [V] is the leakage drain bias."""
    target = sub_vth_ioff_target(node) if ioff_target is None else ioff_target
    bias = node.vdd_nominal if vdd_leak is None else vdd_leak
    candidates: list[MOSFET] = []
    for ratio in HALO_RATIO_GRID:
        candidate = _solve_substrate_for_ioff(
            node, l_poly_nm, ratio, target, polarity, width_um, bias
        )
        if candidate is not None:
            candidates.append(candidate)
    best: MOSFET | None = None
    if candidates:
        ss_best = min(c.ss_v_per_dec for c in candidates)
        near = [c for c in candidates
                if c.ss_v_per_dec <= ss_best * (1.0 + SS_TIE_TOLERANCE)]
        best = min(near, key=lambda c: c.profile.n_sub_cm3)
    if best is None:
        raise OptimizationError(
            f"{node.name}: no doping meets I_off = {target:.3g} A/um at "
            f"L_poly = {l_poly_nm:.1f} nm"
        )
    return best


class SubVthOptimizer(subvth.SubVthOptimizer):
    """:class:`repro.scaling.SubVthOptimizer` solving each candidate
    length with :func:`optimize_doping_for_length`."""

    def _rows_for_lengths(self, lengths_nm
                          ) -> list[tuple[float, DeviceDesign, float]]:
        """``(l_poly_nm, design, energy_factor)`` rows, one scalar
        doping optimisation per length and polarity."""
        rows: list[tuple[float, DeviceDesign, float]] = []
        for l_poly in (float(l) for l in lengths_nm):
            n_dev = optimize_doping_for_length(
                self.node, l_poly, self.ioff_target, Polarity.NFET, 1.0,
                vdd_leak=SUB_VTH_EVAL_VDD,
            )
            p_dev = optimize_doping_for_length(
                self.node, l_poly, self.ioff_target, Polarity.PFET,
                self.pfet_width_um, vdd_leak=SUB_VTH_EVAL_VDD,
            )
            design = DeviceDesign(node=self.node, nfet=n_dev, pfet=p_dev,
                                  strategy="sub-vth", vdd=SUB_VTH_EVAL_VDD)
            rows.append((l_poly, design, self.energy_factor(design)))
        return rows


build_sub_vth_family = rebind(subvth.build_sub_vth_family,
                              SubVthOptimizer=SubVthOptimizer)


def derive_flavours(node: NodeSpec, l_poly_nm: float,
                    base_ioff_a_per_um: float = 100e-12,
                    vdd_leak: float = SUB_VTH_EVAL_VDD,
                    pfet_width_um: float = PFET_WIDTH_RATIO,
                    flavours: dict[str, float] | None = None
                    ) -> dict[str, VthFlavour]:
    """The LVT/RVT/HVT menu at ``l_poly_nm`` [nm], one scalar doping
    optimisation per flavour and polarity; ``base_ioff_a_per_um``
    [A/um] is the RVT target, enforced at ``vdd_leak`` [V]."""
    menu = flavours or FLAVOURS
    pairs: dict[str, tuple[MOSFET, MOSFET]] = {}
    for name, multiplier in menu.items():
        target = base_ioff_a_per_um * multiplier
        n_dev = optimize_doping_for_length(
            node, l_poly_nm, ioff_target=target, polarity=Polarity.NFET,
            width_um=1.0, vdd_leak=vdd_leak,
        )
        p_dev = optimize_doping_for_length(
            node, l_poly_nm, ioff_target=target, polarity=Polarity.PFET,
            width_um=pfet_width_um, vdd_leak=vdd_leak,
        )
        pairs[name] = (n_dev, p_dev)
    return _flavour_menu(node, base_ioff_a_per_um, vdd_leak, menu, pairs)


headline_under_calibration = rebind(
    sensitivity.headline_under_calibration,
    build_super_vth_family=build_super_vth_family,
    build_sub_vth_family=build_sub_vth_family)


class DeviceFamily(strategy.DeviceFamily):
    """:class:`repro.scaling.DeviceFamily` with scalar table rows."""

    def table_rows(self) -> list[dict[str, float]]:
        """One summary row per node, each design's V_th,sat from its
        own scalar ``brentq`` extraction."""
        return [d.summary() for d in self.designs]
