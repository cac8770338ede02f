"""Window-relative reality-threshold estimation and zero-gap lower bounds.

Three independent instruments share this module:

  scan_lambda / bisect_lambda   reality verdicts of H on a fixed window as
                                the Gaussian multiplier exponent moves, and
                                the flip point located inside a certified
                                bracket by heat-flow steps, in at most one
                                verdict more than bisection
  ingest_zero_table /           tables of positive ordinates and the
  lehmer_lower_bound            close-pair lower bound computed from them
  debruijn_strip_halfwidth      de Bruijn's strip bound sqrt(max(D^2-2b, 0))

Window verdicts cannot certify global reality, only refute it; every
estimate produced here is therefore explicitly window-relative.
"""

from __future__ import annotations

import io
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_neg,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_sub,
)

from .measures import EvenMeasure, tail_set, transform_function
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
#: bisect_lambda's probes land this many tol past their heat-flow estimate,
#: so that two estimates good to tol/22 from either side close the bracket
_PAST_TOL = mpf(1) / mpf("2.2")
#: bisect_lambda's ITP constants (Oliveira & Takahashi's defaults): band
#: slack n0, at most one verdict more than bisection, and truncation
#: kappa1 = _ITP_KAPPA1 / (first bracket width) with kappa2 = 2
_ITP_SLACK = 1
_ITP_KAPPA1 = mpf("0.2")
#: the band's widths are this fraction of the ITP schedule's, so that
#: rounding cannot leave a bracket a hair wider than tol after the last probe
_ITP_SPARE = mpf(63) / 64
#: Newton steps from an offender's real part to the extremum between the
#: real pair that split off there
_EXTREMUM_STEPS = 8


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

    Requires verdict(lo) = false and verdict(hi) = true.  The verdict is
    monotone in the multiplier (universal factor), so the flip stays inside
    the bracket [lo, hi] that every verdict shrinks, and the estimate is its
    midpoint once hi - lo <= tol.  Each verdict runs with
    locate_offenders=False: no offender is hunted down by subdivision.  For
    a positive measure a false verdict still rests on a nonreal zero
    certified by Newton-Kantorovich (see verify_all_real), as a true one
    rests on a lower bound on the real zeros that meets the count of all
    zeros.

    The next multiplier comes from the heat flow (de Bruijn 1950; Rodgers
    & Tao, arXiv 1801.05914).  A conjugate pair x +- iy near the axis has
    d(y^2)/dlambda ~ -2, and a real pair x +- delta has d(delta^2)/dlambda
    ~ +2, so g = -y^2 at a false verdict (y from its certified offender)
    and g = +delta^2 at a true one (see _split_height, from the last
    offender's real part) both read about 2 (lambda - flip).  The step is
    Illinois regula falsi on g between the bracket ends, or lambda - g/2
    from the one end that has a height, shifted _PAST_TOL * tol past the
    estimate, away from the last verdict, so that two good estimates from
    either side close the bracket.  hi is checked before lo: delta needs
    an offender, and one seen nearer the flip than the caller's hi, so the
    first step is lo + y^2/2.  Without any height the step is the
    midpoint, which is plain bisection.  The heights only choose the next
    probe; every bracket end is a verdict.

    Each step is safeguarded as in ITP (Oliveira & Takahashi, ACM TOMS 47,
    2020, with their default constants): the estimate is first pulled
    toward the midpoint by kappa1 (hi - lo)^2, which counts only while the
    bracket is wide, and the probe then stays in a band about the midpoint
    that keeps the bracket on a schedule with n0 = 1.  So a bisection
    takes at most ceil(log2((hi - lo) / tol)) + 1 verdicts besides the two
    at lo and hi, one more than bisection would, however wrong the
    estimates are.
    """
    ctx = ctx or PrecisionContext()
    with ctx.workdps():
        lo, hi, tol = mpf(lo), mpf(hi), mpf(tol)
    if not lo < hi:
        raise BracketError("need lo < hi")
    if tol <= 0:
        raise DomainError("tol must be positive")
    x0 = None  # real part of the last certified offender

    def verdict(lam):
        """The verdict at lam and its heat-flow height g, or None."""
        nonlocal x0
        if not tail_set(measure).contains(lam):
            raise BracketError(
                "lambda=%s leaves the entireness range" % mpmath.nstr(lam, 10)
            )
        v = verify_all_real(measure, lam, window, ctx, locate_offenders=False)
        if v.all_real:
            return True, None if x0 is None else _split_height(measure, lam, x0, tol, ctx)
        if v.worst_offender is None:
            return False, None
        x0 = mpmath.re(v.worst_offender)
        return False, -mpmath.im(v.worst_offender) ** 2

    real, g_hi = verdict(hi)
    if not real:
        raise BracketError(
            "bracket invalid: verdict at hi=%s is false" % mpmath.nstr(hi, 10)
        )
    real, g_lo = verdict(lo)
    if real:
        raise BracketError(
            "bracket invalid: verdict at lo=%s is already true" % mpmath.nstr(lo, 10)
        )
    with ctx.workdps():
        past, span = _PAST_TOL * tol, hi - lo
        left = _ITP_SLACK  # probes left: ceil(log2((hi - lo) / tol)) + slack
        while tol * 2 ** (left - _ITP_SLACK) < hi - lo:
            left += 1
        last_real = False
        while hi - lo > tol:
            mid = (lo + hi) / 2
            lam = _flow_estimate(lo, hi, g_lo, g_hi)
            if lam is None:
                lam = mid
            else:
                # ITP truncation: the estimate moves toward the midpoint by
                # kappa1 (hi - lo)^2, which matters only while hi - lo is wide
                pull = _ITP_KAPPA1 * (hi - lo) ** 2 / span
                lam = mid if pull >= abs(mid - lam) else lam + (pull if lam < mid else -pull)
                lam += -past if last_real else past
                # the probe leaves a bracket no wider than this, with a
                # little to spare for rounding, so that left probes suffice
                width = tol * 2 ** (left - 1) * _ITP_SPARE
                band = max(min(width - (hi - lo) / 2, (hi - lo) / 2 - past), 0)
                lam = min(max(lam, mid - band), mid + band)
            left -= 1
            real, g = verdict(lam)
            if real:
                if last_real and g_lo is not None:
                    g_lo /= 2  # Illinois: lo held for a second step
                hi, g_hi = lam, g
            else:
                if not last_real and g_hi is not None:
                    g_hi /= 2  # hi held for a second step
                lo, g_lo = lam, g
            last_real = real
        return (lo + hi) / 2


def _flow_estimate(lo, hi, g_lo, g_hi):
    """Where g ~ 2 (lambda - flip) vanishes: regula falsi between the
    bracket ends when both have a height, lambda - g/2 from the one that
    has, None when neither has."""
    if g_lo is not None and g_hi is not None:
        return lo - g_lo * (hi - lo) / (g_hi - g_lo)
    if g_lo is not None:
        return lo - g_lo / 2
    if g_hi is not None:
        return hi - g_hi / 2
    return None


def _split_height(measure, lam, x0, tol, ctx):
    """delta^2 of the real pair x_m +- delta that split off near x0, or None.

    Newton on H' runs along the axis from x0 to the extremum x_m of H
    between the pair.  There H ~ H(x_m) + H''(x_m) (x - x_m)^2 / 2, whose
    zeros give delta^2 = -2 H(x_m) / H''(x_m).  Newton stops once its step
    s has s^2 below tol / 100, about the error it leaves in delta^2.  None
    when it does not stop within _EXTREMUM_STEPS or delta^2 is not positive.
    """
    fn = transform_function(measure, lam, ctx)
    stop = mpmath.sqrt(tol) / 10
    x = x0
    for _ in range(_EXTREMUM_STEPS):
        at = fn.parts(mpc(x, 0), ("value", "deriv", "moment2"))
        h, d, m2 = (mpmath.re(at[q].value) for q in ("value", "deriv", "moment2"))  # m2 = -H''
        if m2 == 0:
            return None
        step = d / m2
        if abs(step) < stop:
            delta2 = 2 * h / m2
            return delta2 if delta2 > 0 else None
        x += step
    return None


# ---------------------------------------------------------------------------
# zero tables and the close-pair bound
# ---------------------------------------------------------------------------


def ingest_zero_table(stream, source_label: str = "", ctx: PrecisionContext = None) -> ZeroTable:
    """Parse a text table of positive ordinates, one per line.

    '#'-prefixed lines and blank lines are skipped.  The table must be
    finite, strictly ascending and positive; violations name the line.
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
            if not mpmath.isfinite(x):
                raise SchemaError("line %d: ordinate %s is not finite" % (lineno, line))
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
    infinite, so the radius is recorded with the result; a radius of inf
    takes the whole table, and nan is refused.  The ascending table puts
    the terms in two runs, +x_j near x_k and -x_j near x_k, which
    bisection finds; a sign outside its run fails the exact test and is
    skipped, and the exact test decides every signed ordinate in its run.
    The terms are summed on raw libmp tuples in the order j = 1..n, +x_j
    before -x_j, each operation rounded as its mpf operator rounds it (the
    operator's own libmp call at the context's precision and rounding), so
    g_k is bit for bit the plain mpf loop's.  A nonpositive bracket
    1 - (5/4) gap^2 g_k, or g_k = 0 (no term within the radius), is a
    domain failure of the formula and is reported, never clamped.
    """
    ctx = ctx or PrecisionContext()
    n = len(table.ordinates)
    if not 1 <= k < n:
        raise DomainError("need 1 <= k < table size (k and k+1 must index ordinates)")
    with ctx.workdps():
        radius = mpf(truncation_radius)
        if not radius > 0:  # nan too; inf takes the whole table
            raise DomainError("truncation_radius must be positive, got %s" % radius)
        xs = table.ordinates
        xk = mp.convert(xs[k - 1])
        xk1 = mp.convert(xs[k])
        gap = xk1 - xk
        # the two runs, padded past the rounding of the exact test
        pad = (abs(xk) + radius) * mpf(2) ** (8 - mp.prec)
        near = range(bisect_left(xs, xk - radius - pad), bisect_right(xs, xk + radius + pad))
        mirrored = range(bisect_left(xs, -xk - radius - pad), bisect_right(xs, radius - xk + pad))
        prec, rnd = mp._prec_rounding
        signed = []
        for i in sorted(set(near) | set(mirrored)):
            x = mp.convert(xs[i])._mpf_
            if i in near:
                signed.append(x)
            if i in mirrored:
                signed.append(mpf_neg(x, prec, rnd))
        # the libmp calls of x == xk, abs(x - xk) > radius and
        # g += 1 / ((xk - x) ** 2) + 1 / ((xk1 - x) ** 2), skipping j = k and
        # j = k+1; nearest rounding is symmetric, so |xk - x| is |x - xk|
        a, b, r = xk._mpf_, xk1._mpf_, radius._mpf_
        g = fzero
        for x in signed:
            if x == a or x == b:
                continue
            d = mpf_sub(a, x, prec, rnd)
            if mpf_cmp(mpf_abs(d), r) > 0:
                continue
            e = mpf_sub(b, x, prec, rnd)
            term = mpf_add(
                mpf_rdiv_int(1, mpf_pow_int(d, 2, prec, rnd), prec, rnd),
                mpf_rdiv_int(1, mpf_pow_int(e, 2, prec, rnd), prec, rnd),
                prec,
                rnd,
            )
            g = mpf_add(g, term, prec, rnd)
        g = mp.make_mpf(g)
        if g == 0:
            raise DomainError(
                "pair k=%d: no other ordinate lies within the truncation radius "
                "%s, so g_k = 0 and the bound divides by it"
                % (k, mpmath.nstr(radius, 8))
            )
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
