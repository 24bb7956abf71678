"""Calibration-sensitivity analysis.

Three constants in this reproduction were calibrated against the
paper's simulated trajectories (see DESIGN.md §2): the gate-overlap
fraction, the quasi-2-D characteristic-length multiplier, and the
Eq. 2(b) short-channel slope prefactor.  A fair question is whether
the paper's *conclusions* — the sub-V_th strategy's SNM and energy
advantages at 32nm — depend on those choices.

:func:`headline_under_calibration` re-runs both strategy optimisers
and the headline circuit comparisons under perturbed constants; the
``ext_sensitivity`` experiment sweeps a grid and asserts the
conclusions are calibration-robust.

Implementation note: the constants live as module globals that the
physics reads at call time, so a scoped context manager can swap them
safely (and always restores them, exception or not).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from ..circuit.chain import InverterChain
from ..circuit.snm import noise_margins
from ..device import geometry as geometry_mod
from ..device import subthreshold as subthreshold_mod
from ..device import threshold as threshold_mod
from ..errors import ParameterError
from .subvth import build_sub_vth_family
from .supervth import build_super_vth_family


@contextlib.contextmanager
def calibration(overlap_fraction: float | None = None,
                lt_calibration: float | None = None,
                sce_prefactor: float | None = None):
    """Temporarily override the calibrated constants.

    Only the constants passed are changed; everything is restored on
    exit.  Devices built *inside* the context bake the overridden
    values into their cached state, so comparisons must construct all
    devices within one context.
    """
    for name, value in (("overlap", overlap_fraction),
                        ("lt", lt_calibration),
                        ("prefactor", sce_prefactor)):
        if value is not None and value <= 0.0:
            raise ParameterError(f"{name} override must be positive")
    if overlap_fraction is not None and overlap_fraction >= 0.5:
        raise ParameterError("overlap fraction must be < 0.5")

    saved = (geometry_mod.OVERLAP_FRACTION,
             threshold_mod.LT_CALIBRATION,
             subthreshold_mod.SCE_PREFACTOR_DEFAULT)
    try:
        if overlap_fraction is not None:
            geometry_mod.OVERLAP_FRACTION = overlap_fraction
        if lt_calibration is not None:
            threshold_mod.LT_CALIBRATION = lt_calibration
        if sce_prefactor is not None:
            subthreshold_mod.SCE_PREFACTOR_DEFAULT = sce_prefactor
        yield
    finally:
        (geometry_mod.OVERLAP_FRACTION,
         threshold_mod.LT_CALIBRATION,
         subthreshold_mod.SCE_PREFACTOR_DEFAULT) = saved


@dataclass(frozen=True)
class HeadlineResult:
    """The paper's two headline advantages under one calibration.

    Attributes
    ----------
    snm_advantage:
        Fractional SNM advantage of the sub-V_th 32nm inverter at
        250 mV (paper: ~0.19).
    energy_advantage:
        Fractional energy saving at each strategy's V_min (paper:
        ~0.23).
    ss_degradation:
        Super-V_th fractional S_S degradation 90nm -> 32nm (paper:
        ~0.11).
    """

    snm_advantage: float
    energy_advantage: float
    ss_degradation: float
    overlap_fraction: float
    lt_calibration: float
    sce_prefactor: float


def headline_under_calibration(overlap_fraction: float | None = None,
                               lt_calibration: float | None = None,
                               sce_prefactor: float | None = None
                               ) -> HeadlineResult:
    """Re-run the headline comparisons under perturbed constants.

    Rebuilds both families from scratch inside the calibration scope
    (the cached families in :mod:`repro.experiments.families` are NOT
    used — they carry the default calibration).  The batched doping
    engine's warm-start brackets are keyed by the calibration constants,
    so perturbed runs never reuse default-calibration roots.
    """
    with calibration(overlap_fraction, lt_calibration, sce_prefactor):
        sup = build_super_vth_family()
        sub = build_sub_vth_family()
        sup32, sub32 = sup.design("32nm"), sub.design("32nm")

        snm_sup = noise_margins(sup32.inverter(0.25)).snm
        snm_sub = noise_margins(sub32.inverter(0.25)).snm
        e_sup = InverterChain(sup32.inverter(0.3)) \
            .minimum_energy_point().energy.total_j
        e_sub = InverterChain(sub32.inverter(0.3)) \
            .minimum_energy_point().energy.total_j
        ss = [d.nfet.ss_v_per_dec for d in sup.designs]

        return HeadlineResult(
            snm_advantage=snm_sub / snm_sup - 1.0,
            energy_advantage=1.0 - e_sub / e_sup,
            ss_degradation=ss[-1] / ss[0] - 1.0,
            overlap_fraction=geometry_mod.OVERLAP_FRACTION,
            lt_calibration=threshold_mod.LT_CALIBRATION,
            sce_prefactor=subthreshold_mod.SCE_PREFACTOR_DEFAULT,
        )
