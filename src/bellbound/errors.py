"""Exception hierarchy, and the one check of integer arguments (:func:`integer_arg`).

Everything raised on purpose derives from :class:`BellboundError`, so callers
can catch one type at the boundary.  The value-like errors also subclass
``ValueError`` to stay friendly to generic handling.
"""

from __future__ import annotations

import contextlib
import math
import operator

__all__ = [
    "BellboundError",
    "EmptyInputError",
    "NegativeCoefficientError",
    "NonFiniteCoefficientError",
    "ZeroVectorError",
    "InvalidDimensionError",
    "InvalidIndexError",
    "DimensionMismatchError",
    "LengthMismatchError",
    "NonHermitianResidueError",
    "OddDimensionError",
    "NegativeInputError",
    "TooLargeError",
    "InvariantError",
    "IoFailureError",
    "WorkerFailedError",
    "integer_arg",
]


class BellboundError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInputError(BellboundError, ValueError):
    """A coefficient sequence was empty."""


class NegativeCoefficientError(BellboundError, ValueError):
    """A Schmidt amplitude was negative (coefficients live in [0, 1])."""


class NonFiniteCoefficientError(BellboundError, ValueError):
    """A Schmidt amplitude was infinite or NaN."""


class ZeroVectorError(BellboundError, ValueError):
    """The raw amplitude vector had (numerically) zero norm."""


class InvalidDimensionError(BellboundError, ValueError):
    """A dimension argument was out of range (m < 1, m > n, ...)."""


class InvalidIndexError(BellboundError, ValueError):
    """A selector index was outside its legal set."""


class DimensionMismatchError(BellboundError, ValueError):
    """Operator and state (or operator and operator) dimensions disagree."""


class LengthMismatchError(BellboundError, ValueError):
    """An observable list does not match the coefficient matrix size."""


class NonHermitianResidueError(BellboundError, ArithmeticError):
    """An expectation value came out with a non-negligible imaginary part."""


class OddDimensionError(BellboundError, ValueError):
    """An even-dimension-only quantity was requested for odd m."""


class NegativeInputError(BellboundError, ValueError):
    """A nonnegative scalar argument (e.g. a concurrence) was negative."""


class TooLargeError(BellboundError, ValueError):
    """A size guard tripped (exhaustive search or dense oracle too big)."""


class InvariantError(BellboundError, ValueError):
    """Direct construction of a domain type violated its invariants."""


class IoFailureError(BellboundError):
    """An output file could not be written."""


class WorkerFailedError(BellboundError):
    """A forked sweep worker ended before sending its chunk."""


def integer_arg(name: str, value, low: int, high: float = math.inf,
                error: type[BellboundError] = InvalidDimensionError) -> int:
    """``operator.index(value)`` when it lies in [low, high), else ``error`` naming
    ``name``, the range and the value: the one check of every integer argument, which
    never truncates, so 2.5 and "3" fail as an out-of-range value does."""
    with contextlib.suppress(TypeError):  # no integer at all
        number = operator.index(value)
        if low <= number < high:
            return number
    span = f">= {low}" if high == math.inf else f"in [{low}, {high})"
    raise error(f"{name} must be an integer {span}, got {value!r}")
