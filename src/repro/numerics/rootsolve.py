"""The masked root-solve core: gathered bisection, Illinois, Newton.

Every solver here shares the same skeleton: a 1-D stack of independent
scalar root problems, an index array of unconverged lanes, and one
residual evaluation per sweep over *only* those lanes.  The residual
callback signature is ``residual(x, idx)`` — ``x`` holds the gathered
abscissae and ``idx`` the lane indices they belong to — so callers
slice their per-lane parameters to match (``targets[idx]``).

Conventions
-----------
* Residuals are monotone **increasing** per lane; a bracket is feasible
  iff ``residual(lo) <= 0 <= residual(hi)``.  (Decreasing residuals
  negate at the call site; IEEE negation is exact, so the iterate
  sequence is bitwise unchanged.)
* Lanes whose initial bracket is already at or below ``xtol`` never
  enter the active set: their root is the bracket midpoint.  Warm
  starts exploit this — a sign-verified bracket of width <= ``xtol``
  retires instantly with the same midpoint a cold solve would have
  produced.
* Equivalence: for lanes present in both, the gathered iteration
  reproduces the retired masked loops bitwise, because all residuals
  are elementwise and the gathered updates only re-index them.

Counters: each sweep bumps ``numerics.total_lanes`` by the stack width
and ``numerics.active_lanes`` by the lanes actually evaluated; their
ratio is the measured active-set compression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import perf

__all__ = ["BracketResult", "WarmStarts", "bisect_masked",
           "bisect_illinois", "newton_safeguarded"]

#: ``residual(x, idx)``: gathered abscissae and their lane indices ->
#: residuals of those lanes.
Residual = Callable[[np.ndarray, np.ndarray], np.ndarray]
#: ``residual_jacobian(x, idx)`` -> ``(r, dr/dx)`` of the gathered lanes.
ResidualJacobian = Callable[[np.ndarray, np.ndarray],
                            tuple[np.ndarray, np.ndarray]]

#: Hard sweep cap of :func:`bisect_illinois` (bisection alone would
#: need ~45 sweeps to cross typical bounds; Illinois converges sooner).
MAX_SWEEPS_DEFAULT: int = 80


@dataclass(frozen=True)
class WarmStarts:
    """Per-lane warm-start brackets for :func:`bisect_illinois`.

    ``mask`` selects the lanes with a candidate bracket; ``lo`` /
    ``hi`` are read only where it is set.  Brackets are sign-verified
    before use and fall back to the full bounds when stale, so warm
    starts can only cost performance, never correctness.
    """

    lo: np.ndarray
    hi: np.ndarray
    mask: np.ndarray


@dataclass(frozen=True)
class BracketResult:
    """Outcome of one :func:`bisect_illinois` stack solve.

    ``root`` is meaningful only where ``feasible``.  ``r_lo`` /
    ``r_hi`` are the residuals at the *full* bounds; lanes whose
    sign-verified warm bracket already straddled report ``-inf`` /
    ``+inf`` sentinels instead (monotonicity proves the full bounds
    straddle too).  ``warm_used`` marks the lanes whose warm bracket
    survived verification; ``sweeps`` counts executed sweeps.
    """

    root: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    feasible: np.ndarray
    r_lo: np.ndarray
    r_hi: np.ndarray
    warm_used: np.ndarray
    sweeps: int


def bisect_masked(residual: Residual, lo: np.ndarray, hi: np.ndarray, *,
                  xtol: float, max_sweeps: int | None = None,
                  sweep_counter: str | None = None) -> np.ndarray:
    """Gathered bisection on monotone-increasing per-lane residuals.

    ``lo`` / ``hi`` are 1-D bracket arrays; each bracket must contain
    its lane's sign change (lanes pinned by the caller arrive with a
    collapsed bracket and never activate).  Returns bracket midpoints.

    ``sweep_counter`` names an optional perf counter bumped once per
    executed sweep, preserving the retired callers' counter semantics.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    n = lo.shape[0]
    if max_sweeps is None:
        max_width = float(np.max(hi - lo)) if n else 0.0
        max_sweeps = max(int(math.ceil(math.log2(
            max(max_width, xtol) / xtol))) + 2, 1)
    idx = np.flatnonzero((hi - lo) > xtol)
    for _ in range(max_sweeps):
        live = idx.shape[0]
        if not live:
            break
        mid = 0.5 * (lo[idx] + hi[idx])
        neg = residual(mid, idx) < 0.0
        lo[idx[neg]] = mid[neg]
        hi[idx[~neg]] = mid[~neg]
        idx = idx[np.flatnonzero((hi[idx] - lo[idx]) > xtol)]
        perf.bump("numerics.total_lanes", n)
        perf.bump("numerics.active_lanes", live)
        if sweep_counter is not None:
            perf.bump(sweep_counter)  # repro: noqa[RPR006] caller passes a registered name
    return 0.5 * (lo + hi)


def bisect_illinois(residual: Residual, lo: np.ndarray, hi: np.ndarray, *,
                    xtol: float, warm_starts: WarmStarts | None = None,
                    warmup_sweeps: int = 0,
                    max_sweeps: int = MAX_SWEEPS_DEFAULT,
                    sweep_counter: str | None = None) -> BracketResult:
    """Warm-started bracketing solve: bisection, then Illinois polish.

    ``lo`` / ``hi`` are the *full* per-lane bounds; ``warm_starts``
    optionally narrows lanes to cached brackets, which are
    sign-verified here (stale lanes fall back to the full bounds at
    the cost of one gathered residual pass).  The first
    ``warmup_sweeps`` sweeps are pure bisection — false position is
    badly skewed while the bracket still spans the residual's
    exponential tails — after which the Illinois (modified false
    position) proposal is used whenever it lands strictly inside the
    bracket, falling back to the midpoint otherwise, so the bracket
    shrinks every sweep and the result is never worse than bisection.
    """
    lo_full = np.array(lo, dtype=float)
    hi_full = np.array(hi, dtype=float)
    n = lo_full.shape[0]
    if warm_starts is None:
        warm = np.zeros(n, dtype=bool)
        lo = lo_full.copy()
        hi = hi_full.copy()
    else:
        warm = np.asarray(warm_starts.mask, dtype=bool)
        lo = np.where(warm, np.asarray(warm_starts.lo, dtype=float), lo_full)
        hi = np.where(warm, np.asarray(warm_starts.hi, dtype=float), hi_full)
    all_lanes = np.arange(n)
    rl = residual(lo, all_lanes)
    rh = residual(hi, all_lanes)
    # Stale warm brackets (no longer straddling) fall back to the full
    # bounds: one extra gathered residual pass, never a wrong root.
    stale = warm & ~((rl <= 0.0) & (rh >= 0.0))
    sidx = np.flatnonzero(stale)
    if sidx.shape[0]:
        lo[sidx] = lo_full[sidx]
        hi[sidx] = hi_full[sidx]
        rl[sidx] = residual(lo_full[sidx], sidx)
        rh[sidx] = residual(hi_full[sidx], sidx)
        warm = warm & ~stale
    # Reported bound residuals: a sign-verified warm bracket proves the
    # full bounds straddle too (the residual is monotone), so warm
    # lanes report sentinels rather than re-evaluating the bounds.
    ret_r_lo = np.where(warm, -np.inf, rl)
    ret_r_hi = np.where(warm, np.inf, rh)

    feasible = (rl <= 0.0) & (rh >= 0.0)
    # Illinois side memory: +1 / -1 when the last two updates replaced
    # the same bracket end, which triggers the residual-halving trick.
    side = np.zeros(n, dtype=np.int8)
    idx = np.flatnonzero(feasible & ((hi - lo) > xtol))
    sweeps = 0
    while idx.shape[0] and sweeps < max_sweeps:
        live = idx.shape[0]
        lo_a, hi_a = lo[idx], hi[idx]
        rl_a, rh_a = rl[idx], rh[idx]
        side_a = side[idx]
        mid = 0.5 * (lo_a + hi_a)
        x = mid
        if sweeps >= warmup_sweeps:
            denom = rh_a - rl_a
            falsi = ((lo_a * rh_a - hi_a * rl_a)
                     / np.where(denom == 0, 1.0, denom))
            use = ((denom != 0) & np.isfinite(falsi)
                   & (falsi > lo_a) & (falsi < hi_a))
            x = np.where(use, falsi, mid)
        r = residual(x, idx)
        move_lo = r < 0.0
        move_hi = ~move_lo
        # Illinois: halve the retained end's residual when the same end
        # survives twice in a row, preventing false-position stagnation.
        rh_a = np.where(move_lo & (side_a == 1), 0.5 * rh_a, rh_a)
        rl_a = np.where(move_hi & (side_a == -1), 0.5 * rl_a, rl_a)
        lo_a = np.where(move_lo, x, lo_a)
        rl_a = np.where(move_lo, r, rl_a)
        hi_a = np.where(move_hi, x, hi_a)
        rh_a = np.where(move_hi, r, rh_a)
        lo[idx] = lo_a
        hi[idx] = hi_a
        rl[idx] = rl_a
        rh[idx] = rh_a
        side[idx] = np.where(move_lo, 1, -1)
        idx = idx[np.flatnonzero((hi_a - lo_a) > xtol)]
        sweeps += 1
        perf.bump("numerics.total_lanes", n)
        perf.bump("numerics.active_lanes", live)
        if sweep_counter is not None:
            perf.bump(sweep_counter)  # repro: noqa[RPR006] caller passes a registered name
    return BracketResult(root=0.5 * (lo + hi), lo=lo, hi=hi,
                         feasible=feasible, r_lo=ret_r_lo, r_hi=ret_r_hi,
                         warm_used=warm, sweeps=sweeps)


def newton_safeguarded(residual_jacobian: ResidualJacobian, lo: np.ndarray,
                       hi: np.ndarray, *, xtol: float,
                       max_sweeps: int = MAX_SWEEPS_DEFAULT,
                       sweep_counter: str | None = None) -> np.ndarray:
    """Bracketed Newton with bisection fallback over a stack of lanes.

    ``residual_jacobian(x, idx)`` returns ``(r, dr)`` for the gathered
    lanes.  Each sweep proposes a Newton step from the current bracket
    midpoint and keeps it only when it lands strictly inside the lane's
    bracket (and the derivative is finite and nonzero); otherwise the
    lane bisects.  Either way the evaluated point's residual sign
    shrinks the bracket, so convergence is at worst bisection and the
    usual quadratic rate near simple roots.  Returns bracket midpoints.

    This is the derivative-bearing variant of :func:`bisect_masked`
    for residuals with a cheap analytic Jacobian (the batched Poisson
    outer loop is the canonical shape); the bisection solvers remain
    the right tool for the derivative-free leakage residuals.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    n = lo.shape[0]
    idx = np.flatnonzero((hi - lo) > xtol)
    for _ in range(max_sweeps):
        live = idx.shape[0]
        if not live:
            break
        lo_a, hi_a = lo[idx], hi[idx]
        mid = 0.5 * (lo_a + hi_a)
        r, dr = residual_jacobian(mid, idx)
        step_ok = np.isfinite(dr) & (dr != 0)
        newton = mid - r / np.where(step_ok, dr, 1.0)
        use = step_ok & np.isfinite(newton) & (newton > lo_a) & (newton < hi_a)
        x = np.where(use, newton, mid)
        r_x, _ = residual_jacobian(x, idx)
        move_lo = r_x < 0.0
        lo_a = np.where(move_lo, x, lo_a)
        hi_a = np.where(move_lo, hi_a, x)
        lo[idx] = lo_a
        hi[idx] = hi_a
        idx = idx[np.flatnonzero((hi_a - lo_a) > xtol)]
        perf.bump("numerics.total_lanes", n)
        perf.bump("numerics.active_lanes", live)
        if sweep_counter is not None:
            perf.bump(sweep_counter)  # repro: noqa[RPR006] caller passes a registered name
    return 0.5 * (lo + hi)
