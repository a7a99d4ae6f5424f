"""Exception hierarchy for the ``repro`` package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class at API boundaries.  Numerical failures are kept distinct
from user input errors: the former signal that an algorithm did not meet its
tolerance (retry with different settings), the latter that the request was
malformed (fix the call).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ParameterError",
    "ConvergenceError",
    "BracketingError",
    "IntegrationError",
    "DatasetError",
    "GraphError",
    "SweepError",
    "ServiceClosedError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ParameterError(ReproError, ValueError):
    """A model, control, or experiment parameter is invalid."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative numerical method failed to converge.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual:
        Final residual (method specific), or ``None`` when unavailable.
    """

    def __init__(self, message: str, *, iterations: int | None = None,
                 residual: float | None = None) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class BracketingError(ReproError, ValueError):
    """A root-finding bracket does not enclose a sign change."""


class IntegrationError(ReproError, RuntimeError):
    """An ODE integration failed (step size underflow, NaN state, ...)."""


class ServiceClosedError(ReproError, RuntimeError):
    """The scenario service or its batcher is closed to new work."""


class DatasetError(ReproError, RuntimeError):
    """A dataset could not be located, parsed, or synthesized."""


class GraphError(ReproError, ValueError):
    """A graph construction or query is invalid."""


class SweepError(ReproError, RuntimeError):
    """A task of a parallel sweep/experiment failed.

    Raised by the :mod:`repro.parallel` engine in the *parent* process so
    callers never see a bare pickled worker traceback.  The failing
    parameter point travels with the exception.

    Attributes
    ----------
    point:
        The parameter point (or task payload description) that failed,
        or ``None`` when unknown.
    task_index:
        Position of the failing task in the sweep's deterministic order.
    error_type:
        Class name of the underlying exception inside the worker.
    worker_traceback:
        Formatted traceback captured worker-side (may be ``None`` for
        failures that never reached a worker, e.g. unpicklable tasks).
    """

    def __init__(self, message: str, *, point: object = None,
                 task_index: int | None = None,
                 error_type: str | None = None,
                 worker_traceback: str | None = None) -> None:
        super().__init__(message)
        self.point = point
        self.task_index = task_index
        self.error_type = error_type
        self.worker_traceback = worker_traceback
