"""Window-relative reality-threshold estimation and zero-gap lower bounds.

Three independent instruments share this module:

  scan_lambda / bisect_lambda   reality verdicts of H on a fixed window as
                                the Gaussian multiplier exponent moves, and
                                the flip point located by bisection
  ingest_zero_table /           tables of positive ordinates and the
  lehmer_lower_bound            close-pair lower bound computed from them
  debruijn_strip_halfwidth      de Bruijn's strip bound sqrt(max(D^2-2b, 0))

Window verdicts cannot certify global reality, only refute it; every
estimate produced here is therefore explicitly window-relative.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf

from .measures import EvenMeasure, tail_set
from .precision import (
    BracketError,
    DomainError,
    PrecisionContext,
    SchemaError,
)
from .zeros import Rectangle, RealityVerdict, verify_all_real

__all__ = [
    "LambdaVerdict",
    "ZeroTable",
    "LehmerPairRecord",
    "scan_lambda",
    "monotonicity_warnings",
    "bisect_lambda",
    "ingest_zero_table",
    "lehmer_lower_bound",
    "debruijn_strip_halfwidth",
]

#: default reach of the truncated pair-interaction sum, in ordinate units
DEFAULT_TRUNCATION_RADIUS = 500


@dataclass(frozen=True)
class LambdaVerdict:
    lam: mpf
    entire: bool
    verdict: RealityVerdict = None
    warning: str = None

    @property
    def all_real(self):
        return self.verdict.all_real if self.verdict is not None else None


@dataclass(frozen=True)
class ZeroTable:
    ordinates: tuple
    source_label: str = ""

    def __len__(self):
        return len(self.ordinates)


@dataclass(frozen=True)
class LehmerPairRecord:
    k: int
    gap: mpf
    g_k: mpf
    lambda_k: mpf
    truncation_radius: mpf


def scan_lambda(
    measure: EvenMeasure,
    lambdas,
    window: Rectangle,
    ctx: PrecisionContext = None,
):
    """One reality verdict per grid point, with monotonicity surveillance.

    A real-then-nonreal flip as the multiplier increases contradicts the
    universal-factor theorem, so any such pattern is flagged as a
    numerical-resolution warning on the offending grid point rather than
    trusted.
    """
    ctx = ctx or PrecisionContext()
    with ctx.workdps():
        grid = [mpf(l) for l in lambdas]
    results = []
    for lam in grid:
        if not tail_set(measure).contains(lam):
            results.append(LambdaVerdict(lam=lam, entire=False))
            continue
        verdict = verify_all_real(measure, lam, window, ctx)
        results.append(LambdaVerdict(lam=lam, entire=True, verdict=verdict))

    flagged = monotonicity_warnings([(r.lam, r.all_real) for r in results])
    for i, warning in flagged.items():
        r = results[i]
        results[i] = LambdaVerdict(
            lam=r.lam, entire=r.entire, verdict=r.verdict, warning=warning
        )
    return results


def monotonicity_warnings(pairs) -> dict:
    """Flag false verdicts sitting above a true one (universal factor).

    pairs is a sequence of (lam, all_real) with all_real None when the
    multiplier was outside the entireness range.  Returns {index: warning
    text} for the offending entries; scan_lambda applies this to its own
    results, and callers that run one grid point per job apply it to
    the merged list.
    """
    order = sorted(
        (i for i, (_, flag) in enumerate(pairs) if flag is not None),
        key=lambda i: pairs[i][0],
    )
    seen_true = None
    out = {}
    for i in order:
        lam, flag = pairs[i]
        if flag:
            seen_true = lam
        elif seen_true is not None:
            out[i] = (
                "verdict false above a true verdict at lambda=%s; "
                "universal-factor monotonicity says this is a window or "
                "resolution artifact" % mpmath.nstr(seen_true, 10)
            )
    return out


def bisect_lambda(
    measure: EvenMeasure,
    lo,
    hi,
    window: Rectangle,
    tol,
    ctx: PrecisionContext = None,
):
    """Flip point of the window verdict, to absolute tolerance tol.

    Requires verdict(lo) = false and verdict(hi) = true; the verdict is
    monotone in the multiplier (universal factor), so plain bisection
    applies.  Each verdict runs with locate_offenders=False: no offender
    is hunted down by subdivision.  For a positive measure a false verdict
    still rests on a nonreal zero certified by Newton-Kantorovich (see
    verify_all_real), as a true one rests on a lower bound on the real
    zeros that meets the count of all zeros.
    """
    ctx = ctx or PrecisionContext()
    with ctx.workdps():
        lo, hi, tol = mpf(lo), mpf(hi), mpf(tol)
    if not lo < hi:
        raise BracketError("need lo < hi")
    if tol <= 0:
        raise DomainError("tol must be positive")

    def verdict(lam) -> bool:
        if not tail_set(measure).contains(lam):
            raise BracketError(
                "lambda=%s leaves the entireness range" % mpmath.nstr(lam, 10)
            )
        return verify_all_real(measure, lam, window, ctx, locate_offenders=False).all_real

    if verdict(lo):
        raise BracketError(
            "bracket invalid: verdict at lo=%s is already true" % mpmath.nstr(lo, 10)
        )
    if not verdict(hi):
        raise BracketError(
            "bracket invalid: verdict at hi=%s is false" % mpmath.nstr(hi, 10)
        )
    with ctx.workdps():
        while hi - lo > tol:
            mid = (lo + hi) / 2
            if verdict(mid):
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2


# ---------------------------------------------------------------------------
# zero tables and the close-pair bound
# ---------------------------------------------------------------------------


def ingest_zero_table(stream, source_label: str = "", ctx: PrecisionContext = None) -> ZeroTable:
    """Parse a text table of positive ordinates, one per line.

    '#'-prefixed lines and blank lines are skipped.  The table must be
    strictly ascending and positive; violations name the line.
    """
    ctx = ctx or PrecisionContext()
    if isinstance(stream, bytes):
        stream = stream.decode("utf-8")
    if isinstance(stream, str):
        lines = io.StringIO(stream)
    elif hasattr(stream, "read"):
        lines = stream
    else:
        lines = iter(stream)

    ordinates = []
    with ctx.workdps():
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                x = mpf(line)
            except ValueError:
                raise SchemaError("line %d: cannot parse %r as a number" % (lineno, line))
            if x <= 0:
                raise SchemaError("line %d: ordinate %s is not positive" % (lineno, line))
            if ordinates and x <= ordinates[-1]:
                raise SchemaError(
                    "line %d: ordinate %s breaks strict ascent (previous %s)"
                    % (lineno, line, mpmath.nstr(ordinates[-1], 12))
                )
            ordinates.append(x)
    return ZeroTable(ordinates=tuple(ordinates), source_label=source_label)


def lehmer_lower_bound(
    table: ZeroTable,
    k: int,
    truncation_radius=DEFAULT_TRUNCATION_RADIUS,
    ctx: PrecisionContext = None,
) -> LehmerPairRecord:
    """Close-pair lower bound from consecutive ordinates x_k, x_{k+1}.

    Indices are 1-based to match the ascending-table convention.  The
    interaction sum g_k runs over the symmetrized list (x_{-j} = -x_j)
    restricted to |x_j - x_k| <= truncation_radius; the full sum is
    infinite, so the radius is recorded with the result.  A nonpositive
    bracket 1 - (5/4) gap^2 g_k is a domain failure of the formula and is
    reported, never clamped.
    """
    ctx = ctx or PrecisionContext()
    n = len(table.ordinates)
    if not 1 <= k < n:
        raise DomainError("need 1 <= k < table size (k and k+1 must index ordinates)")
    with ctx.workdps():
        radius = mpf(truncation_radius)
        if radius <= 0:
            raise DomainError("truncation_radius must be positive")
        xs = table.ordinates
        xk = xs[k - 1]
        xk1 = xs[k]
        gap = xk1 - xk
        g = mpf(0)
        # signed index j runs over +-1..+-n, skipping j = k and j = k+1
        for j in range(1, n + 1):
            for x in (xs[j - 1], -xs[j - 1]):
                if x == xk or x == xk1:
                    continue
                if abs(x - xk) > radius:
                    continue
                g += 1 / ((xk - x) ** 2) + 1 / ((xk1 - x) ** 2)
        bracket = 1 - mpf(5) / 4 * gap * gap * g
        if bracket < 0:
            raise DomainError(
                "pair k=%d: bracket 1 - (5/4) gap^2 g_k = %s is negative; the "
                "4/5 power leaves the reals" % (k, mpmath.nstr(bracket, 8))
            )
        lam_k = (bracket ** (mpf(4) / 5) - 1) / (8 * g)
        return LehmerPairRecord(
            k=k, gap=gap, g_k=g, lambda_k=lam_k, truncation_radius=radius
        )


def debruijn_strip_halfwidth(delta, lam, ctx: PrecisionContext = None) -> mpf:
    """sqrt(max(Delta^2 - 2 lambda, 0)): half-width of the strip that is
    guaranteed to hold all zeros after a Gaussian multiplier (de Bruijn; here
    d/dlambda H = -H'', so the model z^2 + Delta^2 flows to z^2 + Delta^2 - 2 lambda)."""
    ctx = ctx or PrecisionContext()
    with ctx.workdps():
        delta = mpf(delta)
        lam = mpf(lam)
        if delta < 0:
            raise DomainError("delta must be non-negative")
        inner = delta * delta - 2 * lam
        if inner <= 0:
            return mpf(0)
        return mpmath.sqrt(inner)
