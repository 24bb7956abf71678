"""Property tests for the shared masked root-solve core.

The invariants the three batched engines rely on (see
``src/repro/numerics/rootsolve.py``):

* the gathered updates preserve lane order — every residual call sees a
  sorted subset of the original lane indices, and results land back in
  their own lanes regardless of which lanes retire first;
* NaN and infeasible lanes terminate without poisoning their
  neighbours;
* a sign-verified warm bracket of width <= ``xtol`` retires before the
  first sweep with exactly the midpoint a cold solve produces, while a
  stale bracket falls back to the full bounds;
* the compression counters tick per executed sweep.
"""

import numpy as np
import pytest

from repro import perf
from repro.numerics import (
    WarmStarts,
    bisect_illinois,
    bisect_masked,
    newton_safeguarded,
)

XTOL = 1e-10


def _roots(n, lo=-0.9, hi=0.9, seed=7):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=n)


class TestBisectMasked:
    def test_lane_order_independent_of_retirement(self):
        # Wildly different bracket widths retire lanes at different
        # sweeps; every root must still land in its own lane.
        roots = _roots(64)
        widths = np.logspace(-9, 0, 64)
        lo = roots - widths
        hi = roots + widths

        def residual(x, idx):
            return x - roots[idx]

        solved = bisect_masked(residual, lo, hi, xtol=XTOL)
        assert np.all(np.abs(solved - roots) <= widths)
        assert np.all(np.abs(solved - roots) <= 2.0 * XTOL)

    def test_residual_sees_only_sorted_live_lanes(self):
        roots = _roots(32)
        lo = np.full(32, -1.0)
        hi = np.full(32, 1.0)
        seen = []

        def residual(x, idx):
            seen.append(idx.copy())
            assert np.all(np.diff(idx) > 0)
            return x - roots[idx]

        bisect_masked(residual, lo, hi, xtol=1e-6)
        sizes = [s.size for s in seen]
        assert sizes == sorted(sizes, reverse=True)
        for later in seen[1:]:
            assert np.all(np.isin(later, seen[0]))

    def test_collapsed_lanes_never_activate(self):
        roots = _roots(8)
        lo = roots.copy()
        hi = roots.copy()
        lo[0] -= 0.5
        hi[0] += 0.5

        def residual(x, idx):
            assert np.all(idx == 0)
            return x - roots[idx]

        solved = bisect_masked(residual, lo, hi, xtol=XTOL)
        assert solved[1:] == pytest.approx(roots[1:], abs=0.0)

    def test_nan_lanes_terminate_without_poisoning(self):
        roots = _roots(16)
        bad = np.zeros(16, dtype=bool)
        bad[3] = bad[11] = True

        def residual(x, idx):
            r = x - roots[idx]
            return np.where(bad[idx], np.nan, r)

        lo = np.full(16, -1.0)
        hi = np.full(16, 1.0)
        solved = bisect_masked(residual, lo, hi, xtol=XTOL)
        assert solved[~bad] == pytest.approx(roots[~bad], abs=2e-10)
        assert np.all(np.isfinite(solved))

    def test_compression_counters_tick(self):
        roots = _roots(10)
        before_total = perf.get("numerics.total_lanes")
        before_active = perf.get("numerics.active_lanes")
        bisect_masked(lambda x, idx: x - roots[idx],
                      np.full(10, -1.0), np.full(10, 1.0), xtol=1e-6)
        d_total = perf.get("numerics.total_lanes") - before_total
        d_active = perf.get("numerics.active_lanes") - before_active
        assert d_total > 0
        assert 0 < d_active <= d_total


class TestBisectIllinois:
    def test_matches_brentq_grade_accuracy(self):
        roots = _roots(40)

        def residual(x, idx):
            return np.expm1(x - roots[idx])

        result = bisect_illinois(residual, np.full(40, -1.0),
                                 np.full(40, 1.0), xtol=1e-12,
                                 warmup_sweeps=4)
        assert np.all(result.feasible)
        assert result.root == pytest.approx(roots, abs=1e-11)

    def test_warm_bracket_retires_bitwise(self):
        roots = _roots(6)
        lo = np.full(6, -1.0)
        hi = np.full(6, 1.0)

        def residual(x, idx):
            return x - roots[idx]

        cold = bisect_illinois(residual, lo, hi, xtol=1e-9)
        warm = bisect_illinois(
            residual, lo, hi, xtol=1e-9,
            warm_starts=WarmStarts(lo=np.asarray(cold.lo),
                                   hi=np.asarray(cold.hi),
                                   mask=np.ones(6, dtype=bool)))
        assert warm.sweeps == 0
        assert np.array_equal(warm.root, cold.root)
        assert np.all(warm.warm_used)
        # Sentinels document that the bounds were proven, not probed.
        assert np.all(np.isneginf(warm.r_lo))
        assert np.all(np.isposinf(warm.r_hi))

    def test_stale_warm_bracket_falls_back(self):
        roots = _roots(4)

        def residual(x, idx):
            return x - roots[idx]

        # Brackets that straddle nothing: sign check must reject them.
        stale = WarmStarts(lo=roots + 0.05, hi=roots + 0.06,
                           mask=np.ones(4, dtype=bool))
        result = bisect_illinois(residual, np.full(4, -1.0),
                                 np.full(4, 1.0), xtol=1e-10,
                                 warm_starts=stale)
        assert not np.any(result.warm_used)
        assert np.all(result.feasible)
        assert result.root == pytest.approx(roots, abs=1e-9)

    def test_infeasible_lanes_flagged_not_iterated(self):
        roots = np.array([0.0, 5.0])  # second root outside [-1, 1]

        def residual(x, idx):
            return x - roots[idx]

        result = bisect_illinois(residual, np.full(2, -1.0),
                                 np.full(2, 1.0), xtol=1e-10)
        assert bool(result.feasible[0]) and not bool(result.feasible[1])
        assert result.root[0] == pytest.approx(0.0, abs=1e-9)

    def test_decreasing_residual_negated_at_call_site(self):
        roots = _roots(5)

        def decreasing(x, idx):
            return roots[idx] - x

        result = bisect_illinois(lambda x, idx: -decreasing(x, idx),
                                 np.full(5, -1.0), np.full(5, 1.0),
                                 xtol=1e-11)
        assert result.root == pytest.approx(roots, abs=1e-10)


class TestNewtonSafeguarded:
    def test_quadratic_convergence_on_smooth_residual(self):
        roots = _roots(20)

        def residual_jacobian(x, idx):
            d = x - roots[idx]
            return d ** 3 + d, 3.0 * d ** 2 + 1.0

        solved = newton_safeguarded(residual_jacobian, np.full(20, -1.0),
                                    np.full(20, 1.0), xtol=1e-12)
        assert solved == pytest.approx(roots, abs=1e-11)

    def test_zero_derivative_falls_back_to_bisection(self):
        roots = _roots(8)

        def residual_jacobian(x, idx):
            return x - roots[idx], np.zeros_like(x)

        solved = newton_safeguarded(residual_jacobian, np.full(8, -1.0),
                                    np.full(8, 1.0), xtol=1e-9)
        assert solved == pytest.approx(roots, abs=1e-8)
