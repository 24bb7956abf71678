"""Shared masked root-solve core with active-set compression.

PRs 1, 3 and 4 each hand-rolled the same masked vectorised
bisection/Newton idiom (the batched Poisson outer loop, the circuit
current-balance bisection, the doping bisection+Illinois).  This
package is the single implementation all batched engines now call:

* :func:`bisect_masked` — pure masked bisection (the circuit balance
  and constant-current V_th solves),
* :func:`bisect_illinois` — bisection warm-up plus safeguarded
  Illinois polish with warm-start brackets (the doping solves),
* :func:`newton_safeguarded` — bracketed Newton with bisection
  fallback (the seam for derivative-bearing residuals).

What distinguishes it from the loops it replaced is **active-set
compression**: each sweep *gathers* the unconverged lanes
(``numpy.flatnonzero``) and hands the residual callback only the live
subset, instead of evaluating every lane under a mask.  On tail-heavy
stacks most lanes retire early and stop costing device physics.
Per-lane arithmetic is unchanged — every residual in this repository
is elementwise — so gathered and masked paths agree bitwise.

Residual callbacks receive ``(x, idx)``: the gathered abscissae and
the integer indices of the lanes they belong to, so closures can slice
their per-lane parameters (``targets[idx]``) to match.

Perf counters ``numerics.active_lanes`` / ``numerics.total_lanes``
record lanes evaluated vs lanes carried per sweep; their ratio is the
measured compression (see the provenance footers in docs/RESULTS.md).
"""

from .rootsolve import (
    BracketResult,
    WarmStarts,
    bisect_illinois,
    bisect_masked,
    newton_safeguarded,
)

__all__ = [
    "BracketResult",
    "WarmStarts",
    "bisect_illinois",
    "bisect_masked",
    "newton_safeguarded",
]
