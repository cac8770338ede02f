"""Working-precision policy shared by every numerical kernel in the package.

All kernels compute with mpmath arbitrary-precision arithmetic.  A
PrecisionContext bundles the number of working decimal digits with the
absolute tolerance the caller wants certified, so that a single object can
be threaded through series summation, quadrature, winding integrals and
bisection without each layer inventing its own accuracy conventions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import mpmath
from mpmath import mp, mpf


@dataclass(frozen=True)
class PrecisionContext:
    """Precision and tolerance policy for one computation.

    working_digits: decimal digits mpmath works with while the kernel runs.
    target_abs_tol: absolute error the caller wants the result certified to.

    The working precision must leave headroom beyond the target tolerance;
    two digits is the bare minimum for the truncation rules used by the
    series kernels, and the default pairing (50 digits, 1e-30) leaves a
    wide margin for the argument-principle winding sums downstream.
    """

    working_digits: int = 50
    target_abs_tol: mpf = field(default_factory=lambda: mpf("1e-30"))

    def __post_init__(self):
        if not isinstance(self.working_digits, int) or self.working_digits < 3:
            raise ValueError("working_digits must be an integer >= 3")
        tol = self.target_abs_tol
        if not isinstance(tol, mpf):
            with mp.workdps(self.working_digits):
                tol = mpf(tol)
            object.__setattr__(self, "target_abs_tol", tol)
        if not (self.target_abs_tol > 0):
            raise ValueError("target_abs_tol must be positive")
        if not mpmath.isfinite(self.target_abs_tol):
            raise ValueError("target_abs_tol must be finite")
        if self.working_digits < 2 + self.tol_digits:
            raise ValueError(
                "working_digits=%d leaves no headroom over target_abs_tol=%s "
                "(need >= %d digits)"
                % (self.working_digits, self.target_abs_tol, 2 + self.tol_digits)
            )

    @property
    def tol_digits(self) -> int:
        """ceil(-log10(target_abs_tol)), the digit count the tolerance asks
        for; 0 for a tolerance of 1 or more.  A tolerance below the normal
        float range takes its logarithm in mpmath."""
        tol = self.target_abs_tol
        if tol >= 1:
            return 0
        if tol < sys.float_info.min:
            return int(mpmath.ceil(-mpmath.log10(tol)))
        return int(math.ceil(-math.log10(float(tol))))

    def workdps(self, extra: int = 0):
        """mpmath context manager setting this context's working precision."""
        return mp.workdps(self.working_digits + extra)

    def spawn(self, *, digits: int | None = None, tol=None) -> "PrecisionContext":
        """A copy of this context with the digits, the tolerance or both
        replaced."""
        d = self.working_digits if digits is None else digits
        t = self.target_abs_tol if tol is None else tol
        with mp.workdps(max(d, 15)):
            return PrecisionContext(working_digits=d, target_abs_tol=mpf(t))


#: Package-wide default: 50 working digits certifying 1e-30 absolute error.
DEFAULT_CONTEXT = PrecisionContext()


class DbnlabError(Exception):
    """Base class for all errors raised by this package."""


class RangeError(DbnlabError):
    """An argument falls outside the numerically representable regime."""


class PrecisionLossError(DbnlabError):
    """Cancellation exceeded the precision budget and cannot be recovered."""


class QuadratureError(DbnlabError):
    """Adaptive quadrature failed to meet the requested tolerance."""


class TailBoundError(DbnlabError):
    """No usable analytic bound for the truncated integration tail."""


class EntirenessError(DbnlabError):
    """The requested multiplier leaves the transform's entire range."""


class ContourError(DbnlabError):
    """A zero-counting contour could not be certified free of zeros."""


class WindingError(DbnlabError):
    """A winding number failed to settle near an integer after subdivision."""


class ResolutionError(DbnlabError):
    """A real-axis scan reached its point budget before its crossing count
    settled."""


class BracketError(DbnlabError):
    """A bisection bracket does not actually straddle a verdict change."""


class DomainError(DbnlabError):
    """A formula's domain restriction is violated (reported, not fatal)."""


class FieldError(DomainError, ValueError):
    """One named input of a constructor breaks its rules.

    field names that input relative to what is built ("beta", "atoms",
    "params.a"); a ValueError too, as the measure constructors promise.
    """

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class SchemaError(DbnlabError):
    """A JSON measure or system description violates the input schema."""
