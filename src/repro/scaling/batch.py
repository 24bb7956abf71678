"""Batched design-space engine: vectorised doping root-solves.

The scalar scaling flows (kept as references in
:mod:`repro.reference.scaling`) call ``brentq`` once per (length,
halo-ratio, polarity) candidate, constructing a full
:class:`repro.device.mosfet.MOSFET` per residual evaluation.  This
module replaces those loops with a gathered bracketing solve in
``log10(doping)`` over the whole candidate stack at once — delegated to
the shared root-solve core (:func:`repro.numerics.bisect_illinois`),
which evaluates the residual only on the still-active lanes — on top of
the parameter-axis device evaluation in :mod:`repro.device.batch`.
Scalar MOSFETs are constructed only at the converged roots (the designs
the caller keeps anyway), so the selection rules and returned objects
are shared with the scalar references.

Warm starts: converged roots are cached per (flow, node, polarity,
halo-ratio, length-bucket, target, calibration) in an LRU keyed bracket
cache.  A cached root shrinks the next solve's bracket to
``root +/- WARM_MARGIN_LOG10``; brackets are sign-verified before use
and fall back to the full doping bounds when stale, so warm starts can
only cost performance, never correctness.  The cache is scoped to one
flow invocation — every top-level flow entry calls
:func:`reset_warm_starts` — so flow results never depend on what ran
earlier in the process (see that function's docstring).

The residual ``log(I_off(N)/target)`` is monotone *decreasing* in
``log10(N)`` (more doping -> higher V_th -> less leakage), which gives
the feasibility tests: a candidate is solvable iff the residual is
``>= 0`` at the lower doping bound and ``<= 0`` at the upper one.

Perf counters: ``scaling.doping_batch_solves`` / ``..._points`` count
batched solves and stacked candidate points (deterministic — grid sizes
only), ``scaling.doping_bisection_sweeps`` counts bisection passes
(warm-start dependent), and the bracket cache reports
``cache.bracket.hits`` / ``cache.bracket.misses``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .. import perf
from ..cache import LRUMemo
from ..numerics import WarmStarts, bisect_illinois
from ..device import geometry as geometry_mod
from ..device import subthreshold as subthreshold_mod
from ..device import threshold as threshold_mod
from ..device.batch import ParameterStack
from ..device.mosfet import (
    MOSFET,
    Polarity,
    nfet as build_nfet,
    pfet as build_pfet,
)
from ..errors import OptimizationError
from .roadmap import NodeSpec
from .supervth import LONG_CHANNEL_MULTIPLE, N_HALO_BOUNDS, N_SUB_BOUNDS

__all__ = [
    "DopingSolveRequest",
    "DopingSolveResult",
    "solve_log_doping",
    "solve_substrate_stack",
    "optimize_doping_stack",
    "super_vth_substrate",
    "super_vth_halo",
    "optimize_super_vth_stack",
    "bracket_memo",
    "reset_warm_starts",
]

#: Bisection tolerance in log10(doping) — tight enough that batched and
#: sequential (brentq, xtol=1e-12) roots agree to ~1e-12 relative,
#: comfortably inside the 1e-9 equivalence budget.
XTOL_LOG10: float = 1e-12

#: Half-width [decades] of a warm-start bracket around a cached root.
WARM_MARGIN_LOG10: float = 0.3

#: Gate lengths within one bucket share warm-start brackets [nm]; the
#: sub-V_th refinement grid lands in the buckets its sweep populated.
LENGTH_BUCKET_NM: float = 4.0

#: Warm-start bracket cache (cache.bracket.* hit/miss counters).
bracket_memo = LRUMemo("bracket", maxsize=4096)  # repro: noqa[RPR008] reset_warm_starts() drops it at every flow entry


def reset_warm_starts() -> None:
    """Drop the warm-start bracket state.  Called on flow entry.

    Warm-started and cold solves agree only to the bracketing
    tolerance (~1e-12 in log10), not bitwise, so every top-level flow
    invocation starts cold: its results are then a pure function of
    the flow inputs, independent of whatever ran earlier in the
    process.  ``repro report`` relies on this — its byte-deterministic
    docs must not depend on how experiments are partitioned across
    ``--jobs`` workers.  The cache still accelerates the repeated
    solves *within* one flow invocation (the length sweep feeding its
    refinement grid, jobs sharing a length bucket).
    """
    bracket_memo.clear()


@dataclass(frozen=True)
class DopingSolveRequest:
    """One point of a batched doping root-solve.

    For substrate solves the unknown is ``N_sub`` with
    ``N_p,halo = halo_ratio * N_sub``; for halo solves the unknown is
    ``N_p,halo`` at a fixed ``N_sub`` (see :func:`super_vth_halo`).
    """

    node: NodeSpec
    l_poly_nm: float
    halo_ratio: float
    polarity: Polarity
    width_um: float
    ioff_target: float
    vdd_leak: float


@dataclass(frozen=True)
class DopingSolveResult:
    """Outcome of one masked-bisection doping solve.

    ``root_log10`` is meaningful only where ``feasible``.  ``r_lo`` /
    ``r_hi`` are the residuals at the full doping bounds; points whose
    sign-verified warm-start bracket already straddled the root report
    ``+inf`` / ``-inf`` there (the residual is monotone decreasing, so
    a straddling inner bracket proves the full bounds straddle too).
    """

    root_log10: np.ndarray
    feasible: np.ndarray
    r_lo: np.ndarray
    r_hi: np.ndarray


def _bracket_key(flow: str, req: DopingSolveRequest,
                 extra: float | None = None):
    """Warm-start cache key: flow + candidate identity + calibration.

    Lengths are bucketed (:data:`LENGTH_BUCKET_NM`) so nearby lengths —
    the sweep grid vs its refinement grid, Fig. 7/8 curves — share
    brackets.  The calibration module globals are part of the key
    because :func:`repro.scaling.sensitivity.calibration` overrides
    them in place.
    """
    return (
        flow, req.node.name, req.node.l_poly_nm, req.node.t_ox_nm,
        req.polarity.value, round(req.halo_ratio, 9),
        int(round(req.l_poly_nm / LENGTH_BUCKET_NM)),
        req.ioff_target, req.vdd_leak, extra,
        geometry_mod.OVERLAP_FRACTION, threshold_mod.LT_CALIBRATION,
        subthreshold_mod.SCE_PREFACTOR_DEFAULT,
    )


#: Pure-bisection sweeps before the Illinois polish kicks in.  The
#: leakage residual spans tens of log units across the full doping
#: bounds (exponential tails), where false position is badly skewed;
#: a few halvings first make the bracket near-linear.
_BISECTION_WARMUP_SWEEPS: int = 8
#: Hard cap on total sweeps (bisection alone would need ~45 to reach
#: xtol over the full bounds; Illinois converges far sooner).
_MAX_SWEEPS: int = 80


def solve_log_doping(residual: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     keys: Sequence, lo_bound: float, hi_bound: float,
                     xtol: float = XTOL_LOG10) -> DopingSolveResult:
    """Gathered bracketing solve for log10-doping roots over a stack.

    ``residual(log_n, idx)`` maps gathered log10 dopings (plus their
    lane indices, for slicing per-point parameters) to the log-leakage
    residuals of the live points and must be monotone decreasing per
    point.  ``keys`` (one per point; ``None`` opts out) index the
    warm-start bracket cache.

    The iteration is :func:`repro.numerics.bisect_illinois` on the
    negated (monotone-increasing) residual — IEEE negation is exact, so
    the iterate sequence matches the retired in-module loop bitwise: a
    few pure-bisection sweeps shrink every bracket into the near-linear
    regime, then the safeguarded Illinois polish finishes superlinearly.
    A point whose key has a cached root starts from the bracket
    ``root +/- WARM_MARGIN_LOG10`` (clipped to the bounds).
    """
    n = len(keys)
    lo_full = np.full(n, float(lo_bound))
    hi_full = np.full(n, float(hi_bound))
    perf.bump("scaling.doping_batch_solves")
    perf.bump("scaling.doping_batch_points", n)

    wlo = lo_full.copy()
    whi = hi_full.copy()
    warm = np.zeros(n, dtype=bool)
    for i, key in enumerate(keys):
        root = None if key is None else bracket_memo.get(key)
        if root is None:
            continue
        wl = max(lo_full[i], root - WARM_MARGIN_LOG10)
        wh = min(hi_full[i], root + WARM_MARGIN_LOG10)
        if wl < wh:
            wlo[i], whi[i] = wl, wh
            warm[i] = True

    def increasing(log_n: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return -residual(log_n, idx)

    result = bisect_illinois(
        increasing, lo_full, hi_full, xtol=xtol,
        warm_starts=WarmStarts(lo=wlo, hi=whi, mask=warm),
        warmup_sweeps=_BISECTION_WARMUP_SWEEPS, max_sweeps=_MAX_SWEEPS,
        sweep_counter="scaling.doping_bisection_sweeps",
    )

    root = result.root
    feasible = result.feasible
    for i, key in enumerate(keys):
        if key is not None and feasible[i]:
            bracket_memo.put(key, float(root[i]))

    return DopingSolveResult(root_log10=root, feasible=feasible,
                             r_lo=-result.r_lo, r_hi=-result.r_hi)


def _stack_for(reqs: Sequence[DopingSolveRequest]) -> ParameterStack:
    return ParameterStack(
        l_poly_nm=np.array([r.l_poly_nm for r in reqs]),
        t_ox_nm=np.array([r.node.t_ox_nm for r in reqs]),
        is_nfet=np.array([r.polarity is Polarity.NFET for r in reqs]),
        width_um=np.array([r.width_um for r in reqs]),
        reference_nm=np.array([r.node.l_poly_nm for r in reqs]),
    )


def solve_substrate_stack(reqs: Sequence[DopingSolveRequest],
                          flow: str = "n_sub") -> DopingSolveResult:
    """Batched N_sub solve with ``N_p,halo = halo_ratio * N_sub``."""
    stack = _stack_for(reqs)
    ratios = np.array([r.halo_ratio for r in reqs])
    targets = np.array([r.ioff_target for r in reqs])
    vdds = np.array([r.vdd_leak for r in reqs])

    def residual(log_n: np.ndarray, idx: np.ndarray) -> np.ndarray:
        n_sub = 10.0 ** log_n
        metrics = stack.take(idx).metrics(n_sub, ratios[idx] * n_sub)
        return np.log(metrics.i_off_per_um(vdds[idx]) / targets[idx])

    keys = [_bracket_key(flow, r) for r in reqs]
    lo, hi = (math.log10(b) for b in N_SUB_BOUNDS)
    return solve_log_doping(residual, keys, lo, hi)


def _build_device(req: DopingSolveRequest, n_sub: float,
                  n_p_halo: float) -> MOSFET:
    build = build_nfet if req.polarity is Polarity.NFET else build_pfet
    return build(
        l_poly_nm=req.l_poly_nm,
        t_ox_nm=req.node.t_ox_nm,
        n_sub_cm3=n_sub,
        n_p_halo_cm3=n_p_halo,
        width_um=req.width_um,
        reference_nm=req.node.l_poly_nm,
    )


# -- sub-V_th: minimum-S_S doping over (length x polarity x ratio) ----------

def optimize_doping_groups(node: NodeSpec,
                           groups: Sequence[tuple[float, Polarity, float,
                                                  float, float]],
                           ratios: Sequence[float],
                           ss_tie_tolerance: float) -> list[MOSFET]:
    """Minimum-S_S doping for many candidate groups of one node.

    Each group is ``(l_poly_nm, polarity, width_um, ioff_target,
    vdd_leak)`` and expands into one candidate per halo ratio.  One
    masked root-solve covers the whole ``groups x ratios`` stack, one
    more vectorised metrics pass evaluates S_S at every feasible root,
    and the scalar selection rule (minimum S_S, near ties broken toward
    lower N_sub) picks each group's winner — only the winners are
    materialised as scalar devices.  Raises
    :class:`~repro.errors.OptimizationError` for the first group with
    no feasible candidate, in the sequential flow's iteration order.
    """
    reqs = [
        DopingSolveRequest(node=node, l_poly_nm=float(l_poly),
                           halo_ratio=float(ratio), polarity=pol,
                           width_um=width, ioff_target=target,
                           vdd_leak=vdd)
        for l_poly, pol, width, target, vdd in groups
        for ratio in ratios
    ]
    result = solve_substrate_stack(reqs)
    n_sub = 10.0 ** result.root_log10
    # S_S for every candidate in one vectorised pass (infeasible points
    # evaluate at a bound; their values are never consulted).
    stack = _stack_for(reqs)
    halo = np.array([r.halo_ratio for r in reqs]) * n_sub
    ss_all = stack.metrics(n_sub, halo).ss_v_per_dec

    winners: list[MOSFET] = []
    for g, (l_poly, _pol, _width, target, _vdd) in enumerate(groups):
        span = range(g * len(ratios), (g + 1) * len(ratios))
        feasible = [i for i in span if result.feasible[i]]
        if not feasible:
            raise OptimizationError(
                f"{node.name}: no doping meets I_off = "
                f"{target:.3g} A/um at L_poly = {float(l_poly):.1f} nm"
            )
        ss_best = min(ss_all[i] for i in feasible)
        near = [i for i in feasible
                if ss_all[i] <= ss_best * (1.0 + ss_tie_tolerance)]
        win = min(near, key=lambda i: n_sub[i])
        winners.append(_build_device(
            reqs[win], float(n_sub[win]),
            reqs[win].halo_ratio * float(n_sub[win])))
    return winners


def optimize_doping_stack(node: NodeSpec, lengths_nm: Sequence[float],
                          jobs: Sequence[tuple[Polarity, float]],
                          ratios: Sequence[float], ioff_target: float,
                          vdd_leak: float, ss_tie_tolerance: float
                          ) -> list[list[MOSFET]]:
    """Minimum-S_S doping for every (length, polarity) of one node.

    Convenience wrapper over :func:`optimize_doping_groups` for a
    shared leakage target: returns ``devices[i][j]`` for length ``i``
    and job ``j`` (a ``(polarity, width_um)`` pair).
    """
    groups = [(float(l_poly), pol, width, ioff_target, vdd_leak)
              for l_poly in lengths_nm
              for pol, width in jobs]
    flat = optimize_doping_groups(node, groups, ratios, ss_tie_tolerance)
    n_jobs = len(jobs)
    return [flat[i * n_jobs:(i + 1) * n_jobs]
            for i in range(len(list(lengths_nm)))]


# -- super-V_th: the two-step Fig. 1(c) doping selection --------------------

def _long_channel_request(node: NodeSpec, polarity: Polarity,
                          width_um: float) -> DopingSolveRequest:
    return DopingSolveRequest(
        node=node, l_poly_nm=LONG_CHANNEL_MULTIPLE * node.l_poly_nm,
        halo_ratio=0.0, polarity=polarity, width_um=width_um,
        ioff_target=node.ioff_target_a_per_um, vdd_leak=node.vdd_nominal,
    )


def _raise_substrate_error(req: DopingSolveRequest, below: bool) -> None:
    if below:
        raise OptimizationError(
            f"{req.node.name}: long-channel leakage below target even "
            "at minimum doping — budget unreachable from above"
        )
    raise OptimizationError(
        f"{req.node.name}: cannot meet leakage budget "
        f"{req.ioff_target:.3g} A/um with N_sub <= {N_SUB_BOUNDS[1]:.3g}"
    )


def super_vth_substrate(node: NodeSpec, polarity: Polarity,
                        width_um: float) -> float:
    """Batched step 1: N_sub from the long-channel leakage condition."""
    reset_warm_starts()
    req = _long_channel_request(node, polarity, width_um)
    result = solve_substrate_stack([req], flow="supervth_n_sub")
    if not result.feasible[0]:
        _raise_substrate_error(req, bool(result.r_lo[0] < 0.0))
    return 10.0 ** float(result.root_log10[0])


def _solve_halo_stack(reqs: Sequence[DopingSolveRequest],
                      n_subs: Sequence[float]) -> DopingSolveResult:
    stack = _stack_for(reqs)
    n_sub = np.asarray(n_subs, dtype=float)
    targets = np.array([r.ioff_target for r in reqs])
    vdds = np.array([r.vdd_leak for r in reqs])

    def residual(log_n: np.ndarray, idx: np.ndarray) -> np.ndarray:
        metrics = stack.take(idx).metrics(n_sub[idx], 10.0 ** log_n)
        return np.log(metrics.i_off_per_um(vdds[idx]) / targets[idx])

    keys = [_bracket_key("supervth_halo", r,
                         extra=round(math.log10(ns), 6))
            for r, ns in zip(reqs, n_sub)]
    lo, hi = (math.log10(b) for b in N_HALO_BOUNDS)
    return solve_log_doping(residual, keys, lo, hi)


def super_vth_halo(node: NodeSpec, polarity: Polarity, width_um: float,
                   n_sub: float) -> float:
    """Batched step 2: N_p,halo from the short-channel condition."""
    reset_warm_starts()
    req = DopingSolveRequest(
        node=node, l_poly_nm=node.l_poly_nm, halo_ratio=0.0,
        polarity=polarity, width_um=width_um,
        ioff_target=node.ioff_target_a_per_um, vdd_leak=node.vdd_nominal,
    )
    result = _solve_halo_stack([req], [n_sub])
    if result.feasible[0]:
        return 10.0 ** float(result.root_log10[0])
    if result.r_lo[0] <= 0.0:
        # The short device already meets the budget: no halo needed.
        return N_HALO_BOUNDS[0]
    raise OptimizationError(
        f"{node.name}: halo cannot rescue the short-channel "
        "leakage — L_poly too short for this T_ox"
    )


def optimize_super_vth_stack(jobs: Sequence[tuple[NodeSpec, Polarity, float]]
                             ) -> list[MOSFET]:
    """Run the full Fig. 1(c) loop for many (node, polarity, width) jobs.

    Both root-solve steps are batched across all jobs.  Errors are
    raised for the job the sequential flow would fail first: job ``i``
    runs substrate-then-halo entirely before job ``i+1``, so an earlier
    job's halo failure outranks a later job's substrate failure.
    """
    reset_warm_starts()
    sub_reqs = [_long_channel_request(node, pol, width)
                for node, pol, width in jobs]
    sub_result = solve_substrate_stack(sub_reqs, flow="supervth_n_sub")
    n_sub = 10.0 ** sub_result.root_log10
    bad_sub = next((i for i in range(len(jobs))
                    if not sub_result.feasible[i]), None)

    halo_count = len(jobs) if bad_sub is None else bad_sub
    halo_reqs = [
        DopingSolveRequest(
            node=node, l_poly_nm=node.l_poly_nm, halo_ratio=0.0,
            polarity=pol, width_um=width,
            ioff_target=node.ioff_target_a_per_um,
            vdd_leak=node.vdd_nominal,
        )
        for node, pol, width in jobs[:halo_count]
    ]
    halo_result = (_solve_halo_stack(halo_reqs, n_sub[:halo_count])
                   if halo_reqs else None)
    for i in range(halo_count):
        if (not halo_result.feasible[i]) and halo_result.r_lo[i] > 0.0:
            raise OptimizationError(
                f"{jobs[i][0].name}: halo cannot rescue the short-channel "
                "leakage — L_poly too short for this T_ox"
            )
    if bad_sub is not None:
        _raise_substrate_error(sub_reqs[bad_sub],
                               bool(sub_result.r_lo[bad_sub] < 0.0))

    devices: list[MOSFET] = []
    for i, req in enumerate(halo_reqs):
        n_p_halo = (10.0 ** float(halo_result.root_log10[i])
                    if halo_result.feasible[i] else N_HALO_BOUNDS[0])
        devices.append(_build_device(req, float(n_sub[i]), n_p_halo))
    return devices
