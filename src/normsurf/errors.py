"""Exception types shared across the package."""

from __future__ import annotations


class NormSurfError(Exception):
    """Base class for all errors raised by this package."""


class TriangulationError(NormSurfError):
    """Malformed or inconsistent triangulation, link, or cycle data."""


class VectorError(NormSurfError):
    """A coordinate vector fails a precondition (length, sign, entry
    type, solution, or admissibility)."""


class HomologyError(NormSurfError):
    """Homology computation refused or given a non-cycle input."""


class IntegerOverflow(NormSurfError):
    """An intermediate value of the completion search may not fit the
    int64 arrays it is computed in. Raised before the value is built,
    so no result is ever computed from a wrapped value."""


class ResourceLimitExceeded(NormSurfError):
    """Enumeration exceeded its candidate or wall-clock budget.

    This is a hard, reported failure: results are never silently
    truncated. The counters describe how far the search got.
    """

    def __init__(self, message: str, *, candidates: int, elapsed: float):
        super().__init__(message)
        self.candidates = candidates
        self.elapsed = elapsed
