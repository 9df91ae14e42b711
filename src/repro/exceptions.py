"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError` so that callers can catch every library-specific failure
with a single ``except`` clause while still letting programming errors
(``TypeError``, ``ValueError`` from numpy, ...) propagate unchanged when they
indicate a bug rather than a well-identified domain failure.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DimensionError",
    "SingularMatrixError",
    "ConvergenceError",
    "PhaseFactorError",
    "BlockEncodingError",
    "StatePreparationError",
    "PrecisionError",
    "BackendError",
    "StaleSynthesisError",
    "ResourceModelError",
    "SolveTimeoutError",
    "AdmissionError",
    "QueueFullError",
    "QuotaExceededError",
    "WorkerUnavailableError",
    "CircuitOpenError",
]


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class DimensionError(ReproError, ValueError):
    """An array does not have the expected shape (non-square matrix,
    dimension that is not a power of two, mismatched right-hand side, ...)."""


class SingularMatrixError(ReproError, ValueError):
    """A matrix that must be invertible is (numerically) singular."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative process (refinement, phase-factor solver, VQLS
    optimisation, ...) failed to reach its target accuracy within its
    iteration budget."""

    def __init__(self, message: str, *, iterations: int | None = None,
                 achieved: float | None = None, target: float | None = None):
        super().__init__(message)
        #: number of iterations performed before giving up (``None`` if unknown).
        self.iterations = iterations
        #: best accuracy reached before giving up (``None`` if unknown).
        self.achieved = achieved
        #: accuracy that was requested.
        self.target = target


class PhaseFactorError(ConvergenceError):
    """The symmetric-QSP phase-factor solver could not represent the target
    polynomial (degree too large, polynomial not bounded by one, ...)."""


class BlockEncodingError(ReproError, ValueError):
    """A block-encoding could not be constructed or failed verification."""


class StatePreparationError(ReproError, ValueError):
    """A state-preparation routine received an invalid vector
    (zero norm, wrong length, ...)."""


class PrecisionError(ReproError, ValueError):
    """An unknown precision name or an invalid precision configuration."""


class BackendError(ReproError, RuntimeError):
    """A QPU backend could not execute the requested program."""


class StaleSynthesisError(BackendError):
    """Compiled solver artefacts no longer match the matrix they were built for.

    Raised when a matrix is mutated in place after circuit synthesis (detected
    by a fingerprint mismatch, see :func:`repro.utils.matrix_fingerprint`);
    call :meth:`repro.core.qsvt_solver.QSVTLinearSolver.recompile` to refresh
    the synthesis, or build a new solver."""


class ResourceModelError(ReproError, ValueError):
    """The fault-tolerant resource model was queried with invalid inputs."""


class SolveTimeoutError(ReproError, TimeoutError):
    """A request's deadline expired before its coalesced sweep started.

    Raised by :meth:`repro.serving.worker.GroupSweeper.sweep` (and therefore
    by the serving tier) for requests submitted with ``deadline=``: the
    deadline is checked when the batched sweep is about to run, so an
    expired request never consumes solve work — the primitive admission
    control and load-shedding build on."""

    def __init__(self, message: str, *, late_by: float | None = None):
        super().__init__(message)
        #: seconds past the deadline when the sweep would have started
        #: (``None`` if unknown).
        self.late_by = late_by


class AdmissionError(ReproError, RuntimeError):
    """A serving-tier request was rejected by admission control.

    Every admission rejection is **retriable by design**: the request was
    never dispatched, no partial work exists, and the client may retry after
    :attr:`retry_after` seconds (possibly against a different tenant budget
    or once queues drain).  Subclasses identify which control fired."""

    #: admission rejections never leave partial state behind.
    retriable = True

    def __init__(self, message: str, *, retry_after: float | None = None):
        super().__init__(message)
        #: suggested client back-off in seconds (``None`` = pick your own).
        self.retry_after = retry_after


class QueueFullError(AdmissionError):
    """The routed worker's queue depth crossed the load-shedding watermark."""


class QuotaExceededError(AdmissionError):
    """The tenant's token-bucket quota is exhausted."""


class WorkerUnavailableError(AdmissionError):
    """No live worker can serve the request (empty hash ring, or the routed
    worker died while the request was in flight; the surviving ring will own
    the fingerprint on retry).

    Retriable by design: the supervisor respawns dead workers in the
    background, so a short client back-off usually lands on a healed fleet
    — :class:`repro.serving.resilience.RetryPolicy` automates exactly
    that."""


class CircuitOpenError(WorkerUnavailableError):
    """The routed worker's circuit breaker is open: recent consecutive
    failures make dispatching there pointless, so the request is shed
    instantly instead of queueing onto a worker that is presumed down.
    :attr:`retry_after` carries the time until the breaker half-opens and
    admits a probe."""
