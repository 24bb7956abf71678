"""Exception hierarchy for the reproduction library.

A narrow set of exception types lets callers distinguish between user
error (bad parameters), physics-domain violations (a model evaluated
outside its validity range), and numerical failures (a solver that did
not converge).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ParameterError(ReproError, ValueError):
    """A user-supplied parameter is invalid (wrong sign, out of range)."""


class ModelDomainError(ReproError, ValueError):
    """A physical model was evaluated outside its domain of validity."""


class LostRegenerationError(ParameterError):
    """An inverter VTC has lost regeneration (no usable noise margin).

    Deep-subthreshold supplies (or large V_th perturbations) can
    degenerate the VTC until no gain = -1 noise margin exists; callers
    such as the Monte Carlo and service layers treat this as a
    meaningful "zero margin" outcome rather than a defect, so they
    need to recognise it *structurally* instead of matching message
    strings.  Construct instances through
    :func:`repro.circuit.batch.lost_regeneration_error`, which pairs
    each code with its canonical message.

    Attributes
    ----------
    code:
        Structured failure code, aligned with the batched kernel's
        ``BatchNoiseMargins.lost_code``: ``1`` — the VTC never
        reaches gain -1; ``2`` — the gain = -1 crossing hits the
        sweep boundary.
    """

    def __init__(self, message: str, *, code: int) -> None:
        super().__init__(message)
        self.code = code


class VminBoundaryError(ParameterError):
    """The energy minimum sits on the edge of the V_dd sweep.

    Raised by :func:`repro.circuit.energy.find_vmin` when the coarse
    grid's minimum is its first or last point, so no interior V_min
    exists in range.  The service layer serves this as a null value.
    """


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to converge.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual:
        Final residual norm, if available.
    """

    def __init__(self, message: str, *, iterations: int | None = None,
                 residual: float | None = None) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class OptimizationError(ReproError, RuntimeError):
    """A design-space optimisation could not satisfy its constraints."""


class ExperimentError(ReproError, RuntimeError):
    """An experiment could not be assembled or executed."""
