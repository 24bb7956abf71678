"""Exact tier of the design-space service: batched root-solve answers.

The serving fallback for cache misses, out-of-hull points and shifted
corners — and the oracle the surrogate's recorded error bounds are
measured against.  Every function here composes the same public flow
APIs the experiments use (``optimize_doping_groups`` for the doping,
the scalar :class:`~repro.device.mosfet.MOSFET` metrics,
``noise_margins_batch`` / ``find_vmin`` for the circuit figures), with
:func:`repro.scaling.batch.reset_warm_starts` called on entry, so an
exact service answer is *bitwise* the answer a direct library call
produces — a property the service tests assert.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..circuit.batch import noise_margins_batch
from ..circuit.energy import chain_energy_per_cycle, find_vmin
from ..circuit.inverter import Inverter
from ..device.corners import Corner, at_corner
from ..device.mosfet import Polarity
from ..errors import VminBoundaryError
from ..scaling.batch import optimize_doping_groups, reset_warm_starts
from ..scaling.roadmap import NodeSpec
from ..scaling.strategy import DeviceDesign
from ..scaling.subvth import HALO_RATIO_GRID, SS_TIE_TOLERANCE
from ..scaling.supervth import PFET_WIDTH_RATIO

__all__ = [
    "DOMAIN_L_RATIO",
    "DOMAIN_LOG10_IOFF",
    "DOMAIN_VDD_V",
    "exact_design",
    "design_metrics",
    "exact_point",
    "exact_points",
    "snm_mv_lanes",
    "corner_design",
    "corner_snm_vmin",
    "in_domain",
]

#: Validated domain of the exact tier, as (lo, hi) bounds.  Queries
#: outside these are ``out_of_hull`` *errors*; inside them but off the
#: precomputed grid they fall back to the solves below.
DOMAIN_L_RATIO: tuple[float, float] = (1.0, 4.0)
DOMAIN_LOG10_IOFF: tuple[float, float] = (-13.0, -8.0)
DOMAIN_VDD_V: tuple[float, float] = (0.10, 0.70)


def in_domain(node: NodeSpec, l_poly_nm: float,
              ioff_target_a_per_um: float, vdd_v: float) -> bool:
    """Whether a query point is inside the exact tier's domain.

    ``l_poly_nm`` [nm] is validated as a multiple of the node's etched
    length (:data:`DOMAIN_L_RATIO`), ``ioff_target_a_per_um`` [A/um]
    in log10 against :data:`DOMAIN_LOG10_IOFF`, and ``vdd_v`` [V]
    against :data:`DOMAIN_VDD_V`.
    """
    if ioff_target_a_per_um <= 0.0 or vdd_v <= 0.0 or l_poly_nm <= 0.0:
        return False
    ratio = l_poly_nm / node.l_poly_nm
    log_ioff = math.log10(ioff_target_a_per_um)
    return (DOMAIN_L_RATIO[0] <= ratio <= DOMAIN_L_RATIO[1]
            and DOMAIN_LOG10_IOFF[0] <= log_ioff <= DOMAIN_LOG10_IOFF[1]
            and DOMAIN_VDD_V[0] <= vdd_v <= DOMAIN_VDD_V[1])


def exact_design(node: NodeSpec, l_poly_nm: float,
                 ioff_target_a_per_um: float) -> DeviceDesign:
    """Solve the optimised device pair for one design-space point.

    Minimum-S_S doping meeting ``ioff_target_a_per_um`` [A/um] at the
    node's nominal rail, for the NFET (1 um) and the 2-um PFET, at gate
    length ``l_poly_nm`` [nm] — one cold batched root-solve over the
    ``2 x len(HALO_RATIO_GRID)`` candidate stack.  Lanes of a cold
    masked solve are independent, so each polarity's winner is bitwise
    the device ``optimize_doping_for_length`` returns on its own
    (asserted by ``tests/test_service_server.py``).
    """
    reset_warm_starts()
    groups = [
        (float(l_poly_nm), Polarity.NFET, 1.0,
         float(ioff_target_a_per_um), node.vdd_nominal),
        (float(l_poly_nm), Polarity.PFET, PFET_WIDTH_RATIO,
         float(ioff_target_a_per_um), node.vdd_nominal),
    ]
    n_dev, p_dev = optimize_doping_groups(node, groups, HALO_RATIO_GRID,
                                          SS_TIE_TOLERANCE)
    return DeviceDesign(node=node, nfet=n_dev, pfet=p_dev,
                        strategy="service", vdd=node.vdd_nominal)


def snm_mv_lanes(inverters: Sequence[Inverter]) -> np.ndarray:
    """Inverter SNM ``min(NM_L, NM_H)`` [mV] of every inverter.

    One stacked :func:`~repro.circuit.batch.noise_margins_batch`
    extraction over the whole sequence (each lane bitwise its
    one-inverter answer); NaN once regeneration is lost (served as a
    null value, not an error).
    """
    margins = noise_margins_batch(list(inverters))
    return np.where(margins.lost, np.nan,
                    1000.0 * np.minimum(margins.nm_low, margins.nm_high))


def _snm_mv(design: DeviceDesign, vdd_v: float) -> float:
    """SNM [mV] of one design's inverter at ``vdd_v`` [V]
    (:func:`snm_mv_lanes` on a single lane)."""
    return float(snm_mv_lanes([design.inverter(vdd_v)])[0])


def _vmin_v(design: DeviceDesign) -> float:
    """Minimum-energy supply of the reference chain [V]; NaN when the
    minimum sits on the sweep boundary (no interior V_min)."""
    try:
        return find_vmin(design.inverter(design.vdd)).vmin
    except VminBoundaryError:
        return math.nan


def _metrics(design: DeviceDesign, vdd_v: float,
             snm_mv: float) -> dict[str, float]:
    """Every served metric at ``vdd_v`` [V], the SNM [mV] given."""
    nfet = design.nfet
    energy_j = chain_energy_per_cycle(design.inverter(vdd_v)).total_j
    return {
        "ioff_a_per_um": nfet.i_off_per_um(vdd_v),
        "ion_a_per_um": nfet.i_on_per_um(vdd_v),
        "vth_v": nfet.vth(vdd_v),
        "snm_mv": snm_mv,
        "delay_ps": 1e12 * nfet.intrinsic_delay(vdd_v),
        "energy_fj_per_op": 1e15 * energy_j,
        "ss_mv_per_dec": nfet.ss_mv_per_dec,
        "vmin_v": _vmin_v(design),
    }


def design_metrics(design: DeviceDesign, vdd_v: float) -> dict[str, float]:
    """Every served metric of a design, evaluated at ``vdd_v`` [V].

    Scalar composition of the public metric APIs — the same numbers
    :meth:`repro.scaling.strategy.DeviceDesign.summary` and the
    experiment layer report.  Values follow
    :data:`repro.service.contract.METRIC_DOC`; ``snm_mv`` / ``vmin_v``
    are NaN where the model reports no answer.
    """
    return _metrics(design, vdd_v, _snm_mv(design, vdd_v))


def exact_points(node: NodeSpec,
                 points: Sequence[tuple[float, float, float]]
                 ) -> list[dict[str, float]]:
    """Solve many design-space points exactly and evaluate all metrics.

    Each point is (``l_poly_nm`` [nm], ``ioff_target_a_per_um``
    [A/um], ``vdd_v`` [V]): one cold doping solve per point
    (:func:`exact_design`), then every point's SNM in one stacked
    extraction (:func:`snm_mv_lanes`) and the other metrics per
    point.  Each answer is bitwise the one the point gets alone.
    Raises :class:`~repro.errors.OptimizationError` when no doping
    meets a point's target.
    """
    designs = [exact_design(node, l_poly_nm, ioff_target_a_per_um)
               for l_poly_nm, ioff_target_a_per_um, _vdd_v in points]
    vdds = [vdd_v for _l, _i, vdd_v in points]
    snm = snm_mv_lanes([design.inverter(vdd_v)
                        for design, vdd_v in zip(designs, vdds)])
    return [_metrics(design, vdd_v, float(snm_mv))
            for design, vdd_v, snm_mv in zip(designs, vdds, snm)]


def exact_point(node: NodeSpec, l_poly_nm: float,
                ioff_target_a_per_um: float,
                vdd_v: float) -> dict[str, float]:
    """Solve one design-space point exactly and evaluate all metrics.

    The full fallback path: doping solve at (``l_poly_nm`` [nm],
    ``ioff_target_a_per_um`` [A/um]) then metric evaluation at
    ``vdd_v`` [V] — the one-point case of :func:`exact_points`.
    Raises :class:`~repro.errors.OptimizationError` when no doping
    meets the target (the server maps it to the ``solver_failure``
    code).
    """
    return exact_points(node, [(l_poly_nm, ioff_target_a_per_um,
                                vdd_v)])[0]


def corner_design(design: DeviceDesign, corner: Corner) -> DeviceDesign:
    """The design with both devices shifted to a global process corner.

    Applies :func:`repro.device.corners.at_corner` to the pair; TT
    returns the design unchanged.
    """
    if corner is Corner.TT:
        return design
    return DeviceDesign(
        node=design.node,
        nfet=at_corner(design.nfet, corner),
        pfet=at_corner(design.pfet, corner),
        strategy=design.strategy,
        vdd=design.vdd,
    )


def corner_snm_vmin(design: DeviceDesign, vdd_v: float,
                    corner: Corner) -> dict[str, float]:
    """SNM [mV] and V_min [V] of a design at a global process corner.

    Evaluated at supply ``vdd_v`` [V] on the corner-shifted pair.
    """
    shifted = corner_design(design, corner)
    return {"snm_mv": _snm_mv(shifted, vdd_v),
            "vmin_v": _vmin_v(shifted)}
