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
  (e.g. replayed from the disk spill) retires instantly with the same
  midpoint a cold solve would have produced.
* Equivalence: for lanes present in both, the gathered iteration
  reproduces the retired masked loops bitwise, because all residuals
  are elementwise and gather/scatter only re-indexes them.

Counters: each sweep bumps ``numerics.total_lanes`` by the stack width
and ``numerics.active_lanes`` by the lanes actually evaluated; their
ratio is the measured active-set compression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import perf
from .backend import array_namespace, as_float_copy, flatnonzero, scatter

__all__ = ["BracketResult", "WarmStarts", "bisect_masked",
           "bisect_illinois", "newton_safeguarded"]

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

    lo: object
    hi: object
    mask: object


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

    root: object
    lo: object
    hi: object
    feasible: object
    r_lo: object
    r_hi: object
    warm_used: object
    sweeps: int


def _lane_count(idx) -> int:
    return int(idx.shape[0])


def bisect_masked(residual, lo, hi, *, xtol: float,
                  max_sweeps: int | None = None, sweep_counter: str | None = None):
    """Gathered bisection on monotone-increasing per-lane residuals.

    ``lo`` / ``hi`` are 1-D bracket arrays; each bracket must contain
    its lane's sign change (lanes pinned by the caller arrive with a
    collapsed bracket and never activate).  Returns bracket midpoints.

    ``sweep_counter`` names an optional perf counter bumped once per
    executed sweep, preserving the retired callers' counter semantics.
    """
    xp = array_namespace(lo, hi)
    lo = as_float_copy(xp, lo)
    hi = as_float_copy(xp, hi)
    n = _lane_count(lo)
    if max_sweeps is None:
        max_width = float(xp.max(hi - lo)) if n else 0.0
        max_sweeps = max(int(math.ceil(math.log2(
            max(max_width, xtol) / xtol))) + 2, 1)
    idx = flatnonzero(xp, (hi - lo) > xtol)
    for _ in range(max_sweeps):
        live = _lane_count(idx)
        if not live:
            break
        mid = 0.5 * (lo[idx] + hi[idx])
        neg = residual(mid, idx) < 0.0
        neg_i = flatnonzero(xp, neg)
        pos_i = flatnonzero(xp, ~neg)
        lo = scatter(lo, idx[neg_i], mid[neg_i])
        hi = scatter(hi, idx[pos_i], mid[pos_i])
        idx = idx[flatnonzero(xp, (hi[idx] - lo[idx]) > xtol)]
        perf.bump("numerics.total_lanes", n)
        perf.bump("numerics.active_lanes", live)
        if sweep_counter is not None:
            perf.bump(sweep_counter)  # repro: noqa[RPR006] caller passes a registered name
    return 0.5 * (lo + hi)


def bisect_illinois(residual, lo, hi, *, xtol: float,
                    warm_starts: WarmStarts | None = None,
                    warmup_sweeps: int = 0,
                    max_sweeps: int = MAX_SWEEPS_DEFAULT,
                    sweep_counter: str | None = None
                    ) -> BracketResult:
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
    xp = array_namespace(lo, hi)
    lo_full = as_float_copy(xp, lo)
    hi_full = as_float_copy(xp, hi)
    n = _lane_count(lo_full)
    if warm_starts is None:
        warm = xp.zeros(n, dtype=xp.bool)
        lo = as_float_copy(xp, lo_full)
        hi = as_float_copy(xp, hi_full)
    else:
        warm = xp.asarray(warm_starts.mask, dtype=xp.bool)
        lo = xp.where(warm, xp.asarray(warm_starts.lo, dtype=xp.float64),
                      lo_full)
        hi = xp.where(warm, xp.asarray(warm_starts.hi, dtype=xp.float64),
                      hi_full)
    all_lanes = xp.arange(n)
    rl = residual(lo, all_lanes)
    rh = residual(hi, all_lanes)
    # Stale warm brackets (no longer straddling) fall back to the full
    # bounds: one extra gathered residual pass, never a wrong root.
    stale = warm & ~((rl <= 0.0) & (rh >= 0.0))
    sidx = flatnonzero(xp, stale)
    if _lane_count(sidx):
        lo = scatter(lo, sidx, lo_full[sidx])
        hi = scatter(hi, sidx, hi_full[sidx])
        rl = scatter(rl, sidx, residual(lo_full[sidx], sidx))
        rh = scatter(rh, sidx, residual(hi_full[sidx], sidx))
        warm = warm & ~stale
    # Reported bound residuals: a sign-verified warm bracket proves the
    # full bounds straddle too (the residual is monotone), so warm
    # lanes report sentinels rather than re-evaluating the bounds.
    ret_r_lo = xp.where(warm, -xp.inf, rl)
    ret_r_hi = xp.where(warm, xp.inf, rh)

    feasible = (rl <= 0.0) & (rh >= 0.0)
    # Illinois side memory: +1 / -1 when the last two updates replaced
    # the same bracket end, which triggers the residual-halving trick.
    side = xp.zeros(n, dtype=xp.int8)
    idx = flatnonzero(xp, feasible & ((hi - lo) > xtol))
    sweeps = 0
    while _lane_count(idx) and sweeps < max_sweeps:
        live = _lane_count(idx)
        lo_a, hi_a = lo[idx], hi[idx]
        rl_a, rh_a = rl[idx], rh[idx]
        side_a = side[idx]
        mid = 0.5 * (lo_a + hi_a)
        x = mid
        if sweeps >= warmup_sweeps:
            denom = rh_a - rl_a
            falsi = ((lo_a * rh_a - hi_a * rl_a)
                     / xp.where(denom == 0, 1.0, denom))
            use = ((denom != 0) & xp.isfinite(falsi)
                   & (falsi > lo_a) & (falsi < hi_a))
            x = xp.where(use, falsi, mid)
        r = residual(x, idx)
        move_lo = r < 0.0
        move_hi = ~move_lo
        # Illinois: halve the retained end's residual when the same end
        # survives twice in a row, preventing false-position stagnation.
        rh_a = xp.where(move_lo & (side_a == 1), 0.5 * rh_a, rh_a)
        rl_a = xp.where(move_hi & (side_a == -1), 0.5 * rl_a, rl_a)
        side_a = xp.astype(xp.where(move_lo, 1, -1), xp.int8)
        lo_a = xp.where(move_lo, x, lo_a)
        rl_a = xp.where(move_lo, r, rl_a)
        hi_a = xp.where(move_hi, x, hi_a)
        rh_a = xp.where(move_hi, r, rh_a)
        lo = scatter(lo, idx, lo_a)
        hi = scatter(hi, idx, hi_a)
        rl = scatter(rl, idx, rl_a)
        rh = scatter(rh, idx, rh_a)
        side = scatter(side, idx, side_a)
        idx = idx[flatnonzero(xp, (hi_a - lo_a) > xtol)]
        sweeps += 1
        perf.bump("numerics.total_lanes", n)
        perf.bump("numerics.active_lanes", live)
        if sweep_counter is not None:
            perf.bump(sweep_counter)  # repro: noqa[RPR006] caller passes a registered name
    return BracketResult(root=0.5 * (lo + hi), lo=lo, hi=hi,
                         feasible=feasible, r_lo=ret_r_lo, r_hi=ret_r_hi,
                         warm_used=warm, sweeps=sweeps)


def newton_safeguarded(residual_jacobian, lo, hi, *, xtol: float,
                       max_sweeps: int = MAX_SWEEPS_DEFAULT,
                       sweep_counter: str | None = None):
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
    xp = array_namespace(lo, hi)
    lo = as_float_copy(xp, lo)
    hi = as_float_copy(xp, hi)
    n = _lane_count(lo)
    idx = flatnonzero(xp, (hi - lo) > xtol)
    for _ in range(max_sweeps):
        live = _lane_count(idx)
        if not live:
            break
        lo_a, hi_a = lo[idx], hi[idx]
        mid = 0.5 * (lo_a + hi_a)
        r, dr = residual_jacobian(mid, idx)
        step_ok = xp.isfinite(dr) & (dr != 0)
        newton = mid - r / xp.where(step_ok, dr, 1.0)
        use = step_ok & xp.isfinite(newton) & (newton > lo_a) & (newton < hi_a)
        x = xp.where(use, newton, mid)
        r_x, _ = residual_jacobian(x, idx)
        move_lo = r_x < 0.0
        lo_a = xp.where(move_lo, x, lo_a)
        hi_a = xp.where(~move_lo, x, hi_a)
        lo = scatter(lo, idx, lo_a)
        hi = scatter(hi, idx, hi_a)
        idx = idx[flatnonzero(xp, (hi_a - lo_a) > xtol)]
        perf.bump("numerics.total_lanes", n)
        perf.bump("numerics.active_lanes", live)
        if sweep_counter is not None:
            perf.bump(sweep_counter)  # repro: noqa[RPR006] caller passes a registered name
    return 0.5 * (lo + hi)
