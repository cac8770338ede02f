"""Zero counting, location, and reality certification via the argument
principle.

The central object is a winding integral (1/2pi i) oint f'/f over rectangle
contours, together with the power sums of the zeros inside (Delves-Lyness,
Math. Comp. 21, 1967), which give all root locations of a rectangle that
holds at most MAX_POWER_SUMS = 8 zeros: Newton's identities turn them into
a polynomial whose roots seed Newton.  A rectangle with more zeros, or
whose roots do not polish to distinct zeros inside it, is quadrisected.
The public surface:

  locate_zeros       full ZeroSet for a rectangle: the count and the roots
                     from one sweep of its contour
  count_zeros        the count of locate_zeros, checked against the located
                     multiplicities; where location grew the window, the
                     located zeros in the rectangle given
  locate_real_zeros  sign-change scan plus double-zero confirmation on an
                     interval of the real axis
  verify_all_real    RealityVerdict for a measure over a symmetric window

A verdict proves "all real" when a certified lower bound on the real zeros
meets a certified count of all zeros.  For an even transform (real on the
axis) on a window symmetric about the axis both come from the upper half
of the picture: the count from the argument change along re_max ->
re_max+ib -> re_min+ib -> re_min, and the lower bound from the sign
changes on [re_min, re_max] whose values stand clear of their error
estimates.  A window centred at the origin needs only a quarter: the path
a -> a+ib -> ib, whose count the two symmetries make even, and twice the
sign changes on [0, a].  The scan stops on the first grid where count and
bound meet.  Where they do not, a Newton-Kantorovich certificate at the
deepest |H| minimum either proves a nonreal zero, which makes the verdict
"not all real" with that zero as its offender, or proves a close real pair
that the grid missed.  A scan that settles short with neither locates the
window's zeros once; none more than _AXIS_CUT tol off the axis makes the
verdict "all real", and otherwise the located one closest to the axis is
the offender.  A window the path cannot count, because its count misses
an integer or the transform is not real on the axis, is located once as
well, against the count of that location's own sweep, and judged by the
same cut.

Contour hygiene: a zero on or hugging the contour makes the f'/f edge
integral non-integrable, which the adaptive quadrature reports as
divergence; the top-level rectangle is then grown slightly and retried.
A zero that hugs an edge near a panel's centre can instead slip between
the nodes of both rules, so every edge integral is checked against the
phase of f at its nodes and ends, and an edge whose phases jump past the
integrand's prediction is halved until they agree (see _edge_pass).
(A sampled min/max ratio test would misfire here: zero-free transforms
near an entireness boundary legitimately span 50+ orders of magnitude
along one edge.)  Subdivision lines are placed where a 13-point sample of
|f| stays clear of zero, and never on the real axis of a function real
there, where its real zeros sit; a dip on any sub-rectangle still restarts
the whole count or location on the grown and shifted window.

Float64 twins: the edge integrands (winding and power sums), the axis
scan's values and error estimates, and the |f| samples of the split lines
ask fn.twin first (see TransformFunction.twin).  It answers with a float
value whose rounding bound lies 2^20 below it, so that its sign is the
mpmath value's and f'/f moves far less than a winding count can notice,
or with None (always for an AnalyticFunction), and a None point takes
mpmath.  The axis scan decides sign, clearance of the error estimate and
the order of |f| on the twin's floats: each point carries an int sign, a
flag and an exact (binary exponent, mantissa) key, and an mpf |f| is
built only for the double-zero gate.  The edge integrals run in float64
whatever the point's route: numerics.integrate_adaptive on float ends,
with complex z, f'/f dz and moments, each panel's rounding bound in its
estimate, and |f| compared as log|f| (the transform's values leave the
float range).  Their sums
only feed decisions, a winding within WINDING_SLACK of an integer or
power sums that seed Newton, and come back as mpc.  The polynomial of
those power sums is solved in complex floats as well, by a companion QR
iteration whose roots are only Newton's seeds.  Newton polishing, the
Kantorovich certificates, root bisection and every reported number stay
mpmath.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import mpmath
from mpmath import libmp, mp, mpc, mpf

from . import numerics
from .measures import EvenMeasure, transform_function
from .precision import (
    ContourError,
    DomainError,
    PrecisionContext,
    QuadratureError,
    ResolutionError,
    WindingError,
)

__all__ = [
    "Rectangle",
    "LocatedZero",
    "ZeroSet",
    "RealityVerdict",
    "AnalyticFunction",
    "as_analytic",
    "count_zeros",
    "locate_zeros",
    "locate_real_zeros",
    "verify_all_real",
]

#: accepted distance of the raw winding value from an integer
WINDING_SLACK = mpf("0.25")
MAX_GROW_TRIES = 5
MAX_LOCATE_DEPTH = 16
#: a box that holds at most this many zeros is solved from the power sums of
#: one contour pass; a larger count, or a step that does not accept, is
#: quadrisected
MAX_POWER_SUMS = 8
#: first and largest grid of the real-axis scan over a whole interval; a
#: scan over [0, a] alone uses half as many points, at the same spacing
AXIS_POINTS = 129
AXIS_MAX_POINTS = 16385
#: a verdict's offenders lie more than this many times its tol off the axis
_AXIS_CUT = 1000
#: Newton steps a certified offender may take from its Taylor start
_NEWTON_STEPS = 30
#: QR sweeps allowed per root of a power-sum polynomial, and the stall
#: after which a sweep takes an exceptional shift
_QR_SWEEPS = 30
_QR_EXCEPTIONAL = 10
#: largest miss of a phase step of f between neighbouring nodes of an edge
#: integral against its prediction, and the halvings of an edge allowed to
#: get there (see _edge_pass)
_MAX_PHASE_STEP = math.pi / 2
_MAX_EDGE_SPLITS = 24
_LN2 = math.log(2)
_TAU = 2 * math.pi


@dataclass(frozen=True)
class Rectangle:
    re_min: mpf
    re_max: mpf
    im_min: mpf
    im_max: mpf

    def __post_init__(self):
        finite = all(map(mpmath.isfinite, (self.re_min, self.re_max, self.im_min, self.im_max)))
        if not (finite and self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("rectangle needs finite bounds, re_min < re_max and im_min < im_max")

    @classmethod
    def make(cls, re_min, re_max, im_min, im_max):
        return cls(mpf(re_min), mpf(re_max), mpf(im_min), mpf(im_max))

    @property
    def width(self):
        return self.re_max - self.re_min

    @property
    def height(self):
        return self.im_max - self.im_min

    def center(self) -> mpc:
        return mpc(
            (self.re_min + self.re_max) / 2, (self.im_min + self.im_max) / 2
        )

    def corners(self):
        return (
            mpc(self.re_min, self.im_min),
            mpc(self.re_max, self.im_min),
            mpc(self.re_max, self.im_max),
            mpc(self.re_min, self.im_max),
        )

    def contains(self, z, slack=mpf(0)) -> bool:
        return (
            self.re_min - slack <= mpmath.re(z) <= self.re_max + slack
            and self.im_min - slack <= mpmath.im(z) <= self.im_max + slack
        )

    def grown(self, factor) -> "Rectangle":
        cx = (self.re_min + self.re_max) / 2
        cy = (self.im_min + self.im_max) / 2
        hw = self.width * factor / 2
        hh = self.height * factor / 2
        return Rectangle(cx - hw, cx + hw, cy - hh, cy + hh)

    def nudged(self, factor, dx_frac, dy_frac) -> "Rectangle":
        """Grow and translate off-center, staying a superset of self.

        Growth alone keeps the center fixed, so a zero sitting exactly on
        the central subdivision line (common for functions whose zeros lie
        on an axis of symmetry) survives every retry.  The translation
        breaks that symmetry; it must stay below half the per-side growth
        margin, i.e. dx_frac < (factor - 1)/2, to preserve the superset
        property.
        """
        g = self.grown(factor)
        dx = self.width * dx_frac
        dy = self.height * dy_frac
        return Rectangle(g.re_min + dx, g.re_max + dx, g.im_min + dy, g.im_max + dy)

    # a sum of two mpf is 0 only when they are exact negatives; negating one
    # first would round it to the current precision

    def symmetric_about_axis(self) -> bool:
        return self.im_min + self.im_max == 0

    def centered_at_origin(self) -> bool:
        """Symmetric about both axes (grown() keeps this)."""
        return self.re_min + self.re_max == 0 and self.symmetric_about_axis()


@dataclass(frozen=True)
class LocatedZero:
    location: mpc
    multiplicity: int
    residual: mpf
    cluster: bool = False


@dataclass(frozen=True)
class ZeroSet:
    rect: Rectangle
    count: int
    zeros: tuple  # of LocatedZero

    def total_multiplicity(self) -> int:
        return sum(z.multiplicity for z in self.zeros)


@dataclass(frozen=True)
class RealityVerdict:
    """The answer of verify_all_real.

    window: the rectangle the verdict holds for (the requested one, or that
        one grown, or grown and shifted off centre by location, where a zero
        hugged its contour).
    all_real: whether every zero of H in window is real; a located zero
        within _AXIS_CUT tol of the axis counts as real.
    worst_offender: when not all_real, the nonreal zero the axis scan
        certified, or on a located window the located nonreal zero closest
        to the axis; of a conjugate pair, the member below the axis.  None
        when all_real.
    margin: when all_real, the least distance from the axis to the top or
        bottom of window (the zero-free strip it certifies on either side
        of the axis); otherwise |Im| of worst_offender.
    offender_radius: r when a Newton-Kantorovich certificate proved that
        exactly one zero lies within r of worst_offender, with r below
        |Im worst_offender| and the disk inside window; None when all_real
        or when the offender was located.
    """

    window: Rectangle
    all_real: bool
    worst_offender: mpc = None
    margin: mpf = None
    offender_radius: mpf = None


class AnalyticFunction:
    """Uniform wrapper: value_and_derivative plus an on-axis realness flag.

    The derivative falls back to a central difference when none is given;
    winding counts tolerate that, and root polishing only needs a few
    correct digits of f'/f.
    """

    def __init__(self, f, df=None, real_on_axis_flag=True):
        self._f = f
        self._df = df
        self._real = real_on_axis_flag

    def __call__(self, z):
        return self._f(z)

    def derivative(self, z):
        if self._df is not None:
            return self._df(z)
        h = mpf(10) ** (-(mp.dps // 3))
        return (self._f(z + h) - self._f(z - h)) / (2 * h)

    def value_and_derivative(self, z):
        return self._f(z), self.derivative(z)

    def value_and_error(self, z):
        """f(z) and its error estimate; a plain function comes with none (0)."""
        return self._f(z), mpf(0)

    def twin(self, z, deriv=False):
        """No float64 twin (see TransformFunction.twin): every point takes f."""
        return None

    def real_on_axis(self):
        return self._real


def as_analytic(f, df=None, real_on_axis=True):
    if hasattr(f, "value_and_derivative"):
        return f
    return AnalyticFunction(f, df, real_on_axis)


class _ContourDip(Exception):
    def __init__(self, where):
        self.where = where


class _EvaluatorFailed(Exception):
    """Carries an error f itself raised out of an edge integral, so that
    only the edge quadrature's own non-convergence reads as a dip."""

    def __init__(self, error):
        self.error = error


# ---------------------------------------------------------------------------
# winding + moment integrals
# ---------------------------------------------------------------------------


def _log_abs(v, shift=0):
    """log|v 2^shift| as a float, -inf at v = 0, for a twin's float v or an
    mpmath v, whose size may lie past the float range."""
    if v == 0:
        return -math.inf
    if isinstance(v, (float, complex)):
        return math.log(abs(v)) + shift * _LN2
    m, e = mpmath.frexp(abs(v))
    return math.log(m) + (e + shift) * _LN2


def _phase_at(fn, z):
    """arg f(z), from the twin where it answers; a zero is a dip."""
    got = fn.twin(complex(z))
    v = fn(mpc(z)) if got is None else got[0]
    if v == 0:
        raise _ContourDip(mpc(z))
    return cmath.phase(v) if got is not None else float(mpmath.arg(v))


def _phase_track(nodes, ends):
    """Check a segment's phases: nodes are (t, arg f, Im f'/f dz) at the
    quadrature's nodes, t in (0, 1), and ends the phases at t = 0 and 1.

    Each step between neighbouring points is predicted by the trapezoid of
    the slopes (an end takes its neighbour's), and the step taken is the
    prediction plus the phase difference's miss from it, reduced mod 2 pi.
    Returns (largest |miss|, middle t of its gap, sum of the steps)."""
    track = sorted(nodes)
    track = [(0.0, ends[0], track[0][2])] + track + [(1.0, ends[1], track[-1][2])]
    total, worst, at = 0.0, -1.0, 0.0
    for (t0, p0, s0), (t1, p1, s1) in zip(track, track[1:]):
        guess = (t1 - t0) * (s0 + s1) / 2
        miss = (p1 - p0 - guess + math.pi) % _TAU - math.pi
        total += guess + miss
        if abs(miss) > worst:
            worst, at = abs(miss), (t0 + t1) / 2
    return worst, at, total


def _edge_pass(fn, za, zb, ends, abs_tol, stats, moments=None, depth=0):
    """Integral of f'/f along the segment za -> zb, whose end phases arg f
    are ends; with moments = (c, rho, k), also of w^j f'/f for j = 1..k,
    where w = (z - c)/rho.

    The integral runs in float64 (numerics.integrate_adaptive on float
    ends): z, f'/f dz and the powers of w are complex, a twin value gives
    f'/f directly, and a point without one takes mpmath at mpc(z), whose
    f'/f joins as complex.  stats tracks the least |f| as log|f|, since the
    transform's values can leave the float range.  The results are mpc.

    The quadrature is checked against arg f at its own nodes and at the
    ends.  Both Gauss-Legendre
    rules are symmetric about a panel's centre, so a zero hugging the
    segment near it puts its half-turn between the middle nodes of both,
    where the two sums agree and miss it.  Between neighbouring nodes the
    phase of f moves by about the step Im f'/f dz predicts (see
    _phase_track); across a missed half-turn it differs from that by about
    pi.  So the integral stands only when every step misses its prediction
    by at most _MAX_PHASE_STEP modulo 2 pi, and the phase change the steps
    track agrees with its imaginary part to the same margin.  Otherwise the
    segment is halved and each half integrated to half of abs_tol, down to
    _MAX_EDGE_SPLITS halvings; past them the zero is taken to sit on the
    segment: a dip."""
    a = complex(za)
    dz = complex(zb - za)
    n_moments = moments[2] if moments else 0
    if n_moments:
        c, inv_rho = complex(moments[0]), 1 / float(moments[1])
    nodes = []

    def integrand(t):
        z = a + t * dz
        got = fn.twin(z, deriv=True)
        if got is None:
            try:
                v, d = fn.value_and_derivative(mpc(z))
            except QuadratureError as e:
                raise _EvaluatorFailed(e) from e
            log_av = _log_abs(v)
            phase = float(mpmath.arg(v))
        else:
            v, d, _, shift = got
            log_av = _log_abs(v, shift)
            phase = cmath.phase(v)
        if log_av == -math.inf:
            raise _ContourDip(mpc(z))
        q = complex(d / v)
        nodes.append((t, phase, (q * dz).imag))
        if log_av < stats["min"]:
            stats["min"] = log_av
            stats["argmin"] = z
        out = [q * dz]
        if n_moments:
            w = (z - c) * inv_rho
            for _ in range(n_moments):
                out.append(out[-1] * w)
        return out

    try:
        vals, err, n = numerics.integrate_adaptive(
            integrand, 0.0, 1.0, abs_tol, ncomp=1 + n_moments
        )
    except _EvaluatorFailed as e:
        raise e.error from None
    except QuadratureError:
        # a non-integrable spike on the edge means a zero sits on or
        # hugs the contour: hand control to the perturb-and-retry loop
        raise _ContourDip(mpc(stats["argmin"]))
    worst, at, turn = _phase_track(nodes, ends)
    if worst <= _MAX_PHASE_STEP and abs(vals[0].imag - turn) <= _MAX_PHASE_STEP:
        return [mpc(v) for v in vals], mpf(err), n
    if depth >= _MAX_EDGE_SPLITS:
        raise _ContourDip(mpc(a + at * dz))
    zm = (za + zb) / 2
    mid = _phase_at(fn, zm)
    left = _edge_pass(fn, za, zm, (ends[0], mid), abs_tol / 2, stats, moments, depth + 1)
    right = _edge_pass(fn, zm, zb, (mid, ends[1]), abs_tol / 2, stats, moments, depth + 1)
    return (
        [u + v for u, v in zip(left[0], right[0])],
        left[1] + right[1],
        left[2] + right[2],
    )


def _path_pass(fn, path, perim, abs_tol, moments=None):
    """Integrals of f'/f (and moments, see _edge_pass) along the polygon
    through path.

    Each edge gets the share of abs_tol that its length has of perim.
    """
    stats = {"min": mpf("inf"), "argmin": None}
    totals = [mpc(0)] * (1 + (moments[2] if moments else 0))
    err_total = mpf(0)
    phases = [_phase_at(fn, z) for z in path[:-1]]
    phases.append(phases[0] if path[-1] == path[0] else _phase_at(fn, path[-1]))
    for i, (a, b) in enumerate(zip(path, path[1:])):
        edge_tol = abs_tol * abs(b - a) / perim
        vals, err, _ = _edge_pass(fn, a, b, phases[i : i + 2], edge_tol, stats, moments)
        for j, v in enumerate(vals):
            totals[j] += v
        err_total += err
    return totals, err_total


def _contour_pass(fn, rect: Rectangle, abs_tol):
    """One counterclockwise sweep: the winding and the power sums s_k =
    sum w_j^k, k = 1..MAX_POWER_SUMS, of the zeros z_j in rect, with w =
    (z - c)/rho centred at the box centre c and scaled by its half-diagonal
    rho, so that |w| <= 1 on the contour and no power tightens the pass."""
    corners = rect.corners()
    moments = (rect.center(), _half_diagonal(rect), MAX_POWER_SUMS)
    totals, err_total = _path_pass(
        fn, corners + corners[:1], 2 * (rect.width + rect.height), abs_tol, moments
    )
    two_pi_i = 2 * mp.pi * mpc(0, 1)
    return [t / two_pi_i for t in totals], err_total


def _half_diagonal(rect: Rectangle):
    return mpmath.hypot(rect.width, rect.height) / 2


def _integer_winding(w: mpc):
    n = int(mpmath.nint(w.real))
    residual = abs(w - n)
    return n, residual


def _choose_split(fn, rect: Rectangle):
    """Subdivision cross-lines placed where |f| stays comfortably nonzero."""
    fractions = (
        mpf(1) / 2,
        mpf("0.45"),
        mpf("0.55"),
        mpf("0.4"),
        mpf("0.6"),
        mpf("0.35"),
        mpf("0.65"),
    )

    def log_abs(z):
        # log|f(z)|, as _edge_pass compares it
        got = fn.twin(z)
        return _log_abs(fn(z)) if got is None else _log_abs(got[0], got[3])

    # a line's score is log(min |f| / max |f|) over its samples; a line with
    # f = 0 at every sample has none
    threshold = math.log(1e-6)

    def pick(vertical: bool):
        best, best_score = None, None
        for frac in fractions:
            if vertical:
                x = rect.re_min + rect.width * frac
                pts = [
                    mpc(x, rect.im_min + rect.height * mpf(j) / 12)
                    for j in range(13)
                ]
            else:
                y = rect.im_min + rect.height * frac
                if y == 0 and fn.real_on_axis():
                    continue  # the real zeros sit on it
                pts = [
                    mpc(rect.re_min + rect.width * mpf(j) / 12, y)
                    for j in range(13)
                ]
            logs = [log_abs(z) for z in pts]
            lo, hi = min(logs), max(logs)
            if hi == -math.inf:
                continue
            score = lo - hi
            if score > threshold:
                return rect.re_min + rect.width * frac if vertical else rect.im_min + rect.height * frac
            if best_score is None or score > best_score:
                best_score = score
                best = frac
        if best is None:
            raise ContourError("no zero-free subdivision line found")
        return rect.re_min + rect.width * best if vertical else rect.im_min + rect.height * best

    return pick(True), pick(False)


def _subrects(rect: Rectangle, xc, yc):
    return (
        Rectangle(rect.re_min, xc, rect.im_min, yc),
        Rectangle(xc, rect.re_max, rect.im_min, yc),
        Rectangle(rect.re_min, xc, yc, rect.im_max),
        Rectangle(xc, rect.re_max, yc, rect.im_max),
    )


def _symmetric_count(fn, rect: Rectangle):
    """Zeros of f, real on the axis, in a rect symmetric about it (f even
    when rect is centred at the origin).

    f(conj z) = conj f(z) carries the half path re_max -> re_max+ib ->
    re_min+ib -> re_min onto the lower half of the contour with the same
    argument change D = Im int f'/f dz, so the winding number is
    2D/(2 pi) = D/pi.  f(re_max) and f(re_min) are real, so D is a multiple
    of pi.  When rect is centred at the origin, f(-z) = f(z) also carries
    the quarter path a -> a+ib -> ib onto the other half of the upper one;
    the winding number is 2D/pi, and it is even because f(ib) is real.
    Each edge gets the tolerance per unit length that _contour_pass gives
    it.  Returns None when the winding is not within WINDING_SLACK of an
    integer (an even one on the quarter path).
    """
    a, b = rect.re_max, rect.im_max
    if rect.centered_at_origin():
        path, turns = (mpc(a, 0), mpc(a, b), mpc(0, b)), 2
    else:
        path, turns = (mpc(a, 0), mpc(a, b), mpc(rect.re_min, b), mpc(rect.re_min, 0)), 1
    (total,), _ = _path_pass(fn, path, 2 * (rect.width + rect.height), WINDING_SLACK)
    w = turns * total.imag / mp.pi
    n = turns * int(mpmath.nint(w / turns))
    if abs(w - n) > WINDING_SLACK:
        return None
    if n < 0:
        raise WindingError("negative winding %d: function is not analytic" % n)
    return n


def _retry_on_dip(count, rect: Rectangle, widen):
    """count(rect), widening rect after each contour dip; (count, rect used)."""
    used, last = rect, None
    for _try in range(MAX_GROW_TRIES):
        try:
            return count(used), used
        except _ContourDip as dip:
            last = dip
            used = widen(used)
    raise ContourError(
        "zero pinned to the contour near %s after %d growth attempts"
        % (mpmath.nstr(last.where, 8), MAX_GROW_TRIES)
    )


def _nudge(rect: Rectangle) -> Rectangle:
    return rect.nudged(mpf("1.02"), mpf("0.005"), mpf("0.003"))


# ---------------------------------------------------------------------------
# location
# ---------------------------------------------------------------------------


def _polish(fn, z0, multiplicity, tol, rect: Rectangle):
    # Newton about a double zero, or a pair closer than the precision
    # resolves, ends in a cycle of small steps at the noise floor: once a
    # step below floor is no smaller than the one before, the visited point
    # of least |f| stands.  (A seed already within the noise of a double
    # zero, as the mean of its two power-sum roots often is, can take a
    # first step of nearly floor away, and the step back is no smaller.)
    # Any other point after the last step is no zero, and the caller
    # subdivides or refuses.
    z, floor, last = mpc(z0), mpmath.sqrt(tol), mpf("inf")
    best = z, last
    for _ in range(60):
        try:
            v, d = fn.value_and_derivative(z)
        except ZeroDivisionError:
            # a seed on an exact zero, where f' as f times a sum over the
            # zeros divides by zero
            if fn(z) == 0:
                return z, mpf(0)
            raise
        if v == 0:
            return z, mpf(0)
        if d == 0:
            return None
        if abs(v) < best[1]:
            best = z, abs(v)
        step = multiplicity * v / d
        size = abs(step)
        if last <= size < floor:
            return best
        z = z - step
        if not rect.grown(mpf(3)).contains(z):
            return None
        if size < tol:
            return z, abs(fn(z))
        last = size
    return (z, abs(fn(z))) if size < floor else None


def _moment_tol(rect: Rectangle):
    scale = max(abs(c) for c in rect.corners()) + 1
    return min(mpf("0.2"), mpf("1e-8") * scale * scale)


def _snap_axis(fn, z, tol):
    if fn.real_on_axis() and abs(mpmath.im(z)) < tol:
        return mpc(mpmath.re(z), 0)
    return z


def _polynomial_roots(coeffs):
    """Roots of the monic polynomial with coefficients coeffs, highest
    first, as complex floats: the eigenvalues of its companion matrix by the
    shifted QR iteration, which, unlike an iteration on the polynomial, does
    not stall at a double root.  None when n _QR_SWEEPS sweeps do not find
    all n roots, or a coefficient leaves the float range.

    Float is enough: the coefficients come from power sums integrated in
    float64 and held only to _moment_tol, and the roots only seed the mpmath
    Newton polish of _power_sum_zeros, which decides every located zero.

    The companion matrix is upper Hessenberg.  Each sweep of the active
    block is one explicit-shift QR step by Givens rotations, with the
    Wilkinson shift (the eigenvalue of the trailing 2x2 block nearer its
    last entry) and every _QR_EXCEPTIONAL-th sweep without a deflation an
    exceptional shift; a subdiagonal entry at most 2^-52 of its two
    diagonal neighbours splits the matrix there.
    """
    n = len(coeffs) - 1
    h = [[0j] * n for _ in range(n)]
    h[0] = [-complex(c) for c in coeffs[1:]]
    if not all(map(cmath.isfinite, h[0])):
        return None
    for i in range(1, n):
        h[i][i - 1] = 1 + 0j
    roots, hi, sweeps, stalled = [], n - 1, 0, 0
    while True:
        lo = hi
        while lo > 0 and abs(h[lo][lo - 1]) > 2.0**-52 * (abs(h[lo - 1][lo - 1]) + abs(h[lo][lo])):
            lo -= 1
        if lo == hi:
            roots.append(h[hi][hi])
            hi, stalled = hi - 1, 0
            if hi < 0:
                return roots
            continue
        if sweeps == _QR_SWEEPS * n:
            return None
        sweeps, stalled = sweeps + 1, stalled + 1
        if stalled % _QR_EXCEPTIONAL == 0:
            mu = h[hi][hi] + 0.75 * abs(h[hi][hi - 1]) * 1j
        else:
            a, b, c, d = h[hi - 1][hi - 1], h[hi - 1][hi], h[hi][hi - 1], h[hi][hi]
            p = (a - d) / 2
            s = cmath.sqrt(p * p + b * c)
            den = max(p + s, p - s, key=abs)
            mu = d - b * c / den if den else d
        for k in range(lo, hi + 1):
            h[k][k] -= mu
        turns = []
        for k in range(lo, hi):
            x, y = h[k][k], h[k + 1][k]
            r = math.hypot(abs(x), abs(y))
            cs, sn = (x / r, y / r) if r else (1 + 0j, 0j)
            turns.append((cs, sn))
            h[k][k], h[k + 1][k] = complex(r), 0j
            for j in range(k + 1, hi + 1):
                u, v = h[k][j], h[k + 1][j]
                h[k][j] = cs.conjugate() * u + sn.conjugate() * v
                h[k + 1][j] = cs * v - sn * u
        for k, (cs, sn) in enumerate(turns, lo):
            for i in range(lo, k + 2):
                u, v = h[i][k], h[i][k + 1]
                h[i][k] = u * cs + v * sn
                h[i][k + 1] = v * cs.conjugate() - u * sn.conjugate()
        for k in range(lo, hi + 1):
            h[k][k] += mu


def _power_sum_zeros(fn, rect: Rectangle, sums, n, loc_tol):
    """The n zeros of fn in rect, from the power sums sums[k] = s_k of
    _contour_pass, k = 1..n; None when the step does not accept.

    Newton's identities turn s_1..s_n into the monic polynomial whose roots
    are the w_j (the eigenvalues of the Hankel pencil of Kravanja and Van
    Barel, LNM 1727, 2000), and each root, mapped back to z = c + rho w,
    seeds a simple Newton polish.  Seeds closer than 100 loc_tol, and roots whose simple
    polishes meet within 10 loc_tol, form one cluster; a root whose simple
    polish fails joins the cluster of its nearest other root.  A cluster of
    m roots is polished from their mean with multiplicity m.  The step
    accepts when every located zero passes the residual gate and lies in
    rect, and no two of them meet within 10 loc_tol; a simple zero within
    1e3 loc_tol of another one is flagged as a cluster.
    """
    coeffs = [mpc(1)]
    for k in range(1, n + 1):
        coeffs.append(-sum(coeffs[k - i] * sums[i] for i in range(1, k + 1)) / k)
    roots = _polynomial_roots(coeffs)
    if roots is None:
        return None
    c, rho = rect.center(), _half_diagonal(rect)
    seeds = [c + rho * w for w in roots]

    def size(z):
        # |f(z)| only scales the gate: a twin value, where there is one, serves
        got = fn.twin(z)
        return abs(fn(z)) if got is None else mpmath.ldexp(abs(got[0]), got[3])

    scale = max(size(z) for z in rect.corners()) + mpf(10) ** (-mp.dps)
    res_gate = mpmath.sqrt(loc_tol) * scale

    def polished(z0, multiplicity):
        got = _polish(fn, z0, multiplicity, loc_tol, rect)
        if got is None or got[1] > res_gate or not rect.contains(got[0]):
            return None
        return LocatedZero(_snap_axis(fn, got[0], 100 * loc_tol), multiplicity, got[1])

    label = list(range(n))

    def join(i, j):
        old, new = label[j], label[i]
        label[:] = [new if x == old else x for x in label]

    for i in range(n):
        for j in range(i + 1, n):
            if abs(seeds[i] - seeds[j]) < 100 * loc_tol:
                join(i, j)
    simple = {}
    for i in range(n):
        if label.count(label[i]) > 1:
            continue
        hit = polished(seeds[i], 1)
        if hit is not None:
            simple[i] = hit
        elif n == 1:
            return None
        else:
            join(min((j for j in range(n) if j != i), key=lambda j: abs(seeds[j] - seeds[i])), i)
    for i in simple:
        for j in simple:
            if i < j and abs(simple[i].location - simple[j].location) <= 10 * loc_tol:
                join(i, j)
    found = []
    for group in {x: [i for i in range(n) if label[i] == x] for x in label}.values():
        m = len(group)
        hit = simple[group[0]] if m == 1 else polished(sum(seeds[i] for i in group) / m, m)
        if hit is None:
            return None
        found.append(hit)
    gaps = [
        min([abs(z.location - o.location) for o in found if o is not z], default=mpf("inf"))
        for z in found
    ]
    if min(gaps) <= 10 * loc_tol:
        return None
    return [
        replace(z, cluster=z.multiplicity == 1 and gap < 1000 * loc_tol)
        for z, gap in zip(found, gaps)
    ]


def _locate_recursive(fn, rect: Rectangle, depth: int, loc_tol, out: list) -> int:
    """Add the zeros of fn in rect to out; return rect's winding count, or
    the sum of its quarters' counts when that misses an integer.  A negative
    winding is a WindingError: fn is not analytic in rect."""
    sums, _ = _contour_pass(fn, rect, _moment_tol(rect))
    n, residual = _integer_winding(sums[0])
    if residual > WINDING_SLACK:
        n = None  # force subdivision
    elif n < 0:
        raise WindingError("negative winding %d: function is not analytic" % n)
    if n == 0:
        return 0
    if n is not None and 0 < n <= MAX_POWER_SUMS:
        found = _power_sum_zeros(fn, rect, sums, n, loc_tol)
        if found is not None:
            out += found
            return n

    if depth >= MAX_LOCATE_DEPTH:
        raise WindingError(
            "could not isolate zeros in %s after %d subdivisions"
            % (rect, depth)
        )
    xc, yc = _choose_split(fn, rect)
    quarters = sum(
        _locate_recursive(fn, sub, depth + 1, loc_tol, out) for sub in _subrects(rect, xc, yc)
    )
    return quarters if n is None else n


def _location_tol(ctx: PrecisionContext):
    """The tolerance of the locator's Newton polish."""
    return mpf(10) ** (-min(ctx.tol_digits, 25))


def _locate_counted(fn, rect: Rectangle, count, ctx: PrecisionContext) -> ZeroSet:
    """ZeroSet of fn in rect, given count, the certified number of its zeros
    there, or None for the count of the location's own sweep (see
    _locate_recursive); the located multiplicities must add up to count."""
    with ctx.workdps(5):
        loc_tol = _location_tol(ctx)

        def locate(r):
            out: list = []
            return _locate_recursive(fn, r, 0, loc_tol, out), out

        (swept, zeros), rect = _retry_on_dip(locate, rect, _nudge)
        count = swept if count is None else count
        total = sum(z.multiplicity for z in zeros)
        if total != count:
            raise WindingError(
                "located multiplicities (%d) disagree with winding count (%d)"
                % (total, count)
            )
        return ZeroSet(rect=rect, count=count, zeros=tuple(zeros))


def locate_zeros(f, rect: Rectangle, ctx: PrecisionContext = None) -> ZeroSet:
    """Count and locate all zeros of f in rect (multiplicity-aware).

    One sweep of rect's contour gives both the winding count and the power
    sums that locate its zeros; the located multiplicities are checked
    against that count, and a WindingError refuses a disagreement or a
    negative winding.
    """
    return _locate_counted(as_analytic(f), rect, None, ctx or PrecisionContext())


def count_zeros(f, rect: Rectangle, ctx: PrecisionContext = None) -> int:
    """The number of zeros of f in rect, with multiplicity: the winding of
    the sweep that locate_zeros makes of rect's contour.

    The zeros are located as well, and a WindingError refuses the count
    when their multiplicities disagree with it, or when the winding is
    negative (f is not analytic in rect).  A zero on or hugging the contour
    makes the locator grow rect by 2% and shift it off its centre; the count
    is then that of the located zeros in rect itself.  A located zero on an
    edge, to a few ulps of rect's largest coordinate at the working
    precision, lies in the closed rect.  One farther from an edge than that
    but nearer than the locator's acceptance distance (the square root of
    its tolerance: the Newton polish accepts a point whose step falls below
    it) cannot be put on either side, and the count is refused with a
    ResolutionError.
    """
    ctx = ctx or PrecisionContext()
    found = locate_zeros(f, rect, ctx)
    if found.rect == rect:
        return found.count
    bounds = (rect.re_min, rect.re_max, rect.im_min, rect.im_max)
    with ctx.workdps():
        on_edge = (max(abs(v) for v in bounds) + 1) * mpf(2) ** (4 - mp.prec)
    with ctx.workdps(5):
        accept = mpmath.sqrt(_location_tol(ctx))
        count = 0
        for z in found.zeros:
            x, y = mpmath.re(z.location), mpmath.im(z.location)
            # least margin to an edge: negative outside rect
            depth = min(x - rect.re_min, rect.re_max - x, y - rect.im_min, rect.im_max - y)
            if on_edge < abs(depth) < accept:
                raise ResolutionError(
                    "zero located at %s lies %s from an edge of [%s, %s]x[%s, %s], "
                    "within the locator's acceptance distance %s: it cannot be "
                    "counted in or out"
                    % (mpmath.nstr(z.location, 12), mpmath.nstr(abs(depth), 3),
                       *(mpmath.nstr(v, 12) for v in bounds), mpmath.nstr(accept, 3))
                )
            if depth >= -on_edge:
                count += z.multiplicity
    return count


# ---------------------------------------------------------------------------
# real-axis scan
# ---------------------------------------------------------------------------


class _Grid(NamedTuple):
    """One grid of an axis scan: its points xs and, per point, the sign of
    Re f as an int (0 at an exact zero), whether |Re f| stands clear of its
    error estimate, and an order key of |Re f| (see _order_key); the cells
    i whose ends have opposite nonzero signs, and the grid step."""

    xs: list
    signs: list
    clear: list
    keys: list
    crossings: list
    cell: mpf


#: the order key of |f| = 0, below every other
_ZERO_KEY = (-math.inf, 0)


def _order_key(man, exp, width):
    """(binary exponent, mantissa) of man 2^exp, man > 0, with the mantissa
    an int of exactly width bits: keys of one width compare as the values
    they stand for, whatever each value's route or scale."""
    bc = man.bit_length()
    return exp + bc, man << (width - bc)


def _magnitude(key):
    """The mpf a key stands for (exactly)."""
    e, man = key
    if not man:
        return mpf(0)
    return mp.make_mpf(libmp.from_man_exp(man, e - man.bit_length()))


def _golden_scan(fn, a, b, n, max_points):
    """Axis grids on [a, b] of n points and up, yielded as _Grid.

    Refinement grows the point count by the golden ratio rather than
    doubling: halved strides stay commensurate with any oscillation period
    they alias (a pure tone sampled at ~k periods per step looks like a
    slow envelope at every dyadic refinement), while golden strides cannot
    stay phase-locked across consecutive grids.  The scan ends when three
    consecutive crossing counts agree; a caller may stop it sooner, on a
    certificate of its own.  A caller that asks for a grid past one of
    max_points or more gets a ResolutionError instead: its crossings never
    settled, and that grid's zeros would be a guess.

    Point i is a + (b - a) i / (n - 1), from the libmp calls the mpf
    operators make.  A twin value v 2^s takes its sign and key in float,
    with |v| rounded to the working precision first, as abs() of its mpf
    would be, where that holds fewer than 53 bits; it always stands clear
    of its bound.  A point without a twin value takes mpmath and the same
    fields from its mpf value, clear where |Re f| exceeds its error
    estimate.
    """
    prec, rnd = mp._prec_rounding
    width = max(prec, 53)
    start, span = mp.convert(a)._mpf_, mp.convert(b - a)._mpf_
    history = []
    while True:
        last = libmp.from_int(n - 1)
        xs, signs, clear, keys = [], [], [], []
        for i in range(n):
            x = libmp.mpf_add(
                start,
                libmp.mpf_div(libmp.mpf_mul(span, libmp.from_int(i), prec, rnd), last, prec, rnd),
                prec,
                rnd,
            )
            xs.append(mp.make_mpf(x))
            got = fn.twin(libmp.to_float(x, rnd=rnd))
            if got is None:
                v, e = fn.value_and_error(mpc(xs[-1], 0))
                v = mpmath.re(v)
                av = abs(v)
                negative, man, _, _ = v._mpf_
                signs.append((-1 if negative else 1) if man else 0)
                clear.append(av > e)
                _, man, exp, _ = av._mpf_
            else:
                v, shift = got[0].real, got[3]
                av = abs(v)
                if prec < 53:
                    av = libmp.to_float(libmp.from_float(av, prec, rnd))
                signs.append((v > 0) - (v < 0))
                # twin answers only where TWIN_MARGIN err <= |v|, and H is
                # real here, so |Re v| >= (2^20 - 1) err: clear of err +
                # |Re v| 2^-prec, as a scan runs at 8 digits or more
                clear.append(True)
                m, exp = math.frexp(av)
                man, exp = int(m * 2.0**53), exp - 53 + shift
            keys.append(_order_key(man, exp, width) if man else _ZERO_KEY)
        crossings = [i for i in range(n - 1) if signs[i] * signs[i + 1] < 0]
        yield _Grid(xs, signs, clear, keys, crossings, (b - a) / (n - 1))
        # sign changes with exact zeros skipped: a simple zero that lands on
        # a grid point counts once, on or off the grid, so it cannot keep
        # the count from settling
        nonzero = [s for s in signs if s]
        history.append(sum(1 for s, t in zip(nonzero, nonzero[1:]) if s != t))
        if len(history) >= 3 and history[-1] == history[-2] == history[-3]:
            return
        if n >= max_points:
            raise ResolutionError(
                "axis scan of [%s, %s] reached %d points with crossing counts %s"
                % (mpmath.nstr(a, 8), mpmath.nstr(b, 8), n, history[-3:])
            )
        n = int(n * mpf("1.618")) + 1


def _quiet_minima(grid):
    """Interior grid points i where |f| has a local minimum with no sign
    change on either side."""
    keys, crossed = grid.keys, set(grid.crossings)
    return [
        i
        for i in range(1, len(keys) - 1)
        if keys[i] <= min(keys[i - 1], keys[i + 1])
        and i - 1 not in crossed
        and i not in crossed
    ]


def _double_zero_candidates(grid):
    """The quiet minima where |f| is below the gate: the possible double
    zeros (or near-axis nonreal pairs) of a scan.  The gate allows for
    grid-resolution distance from a quadratic minimum."""
    keys, cell = grid.keys, grid.cell
    gate = (_magnitude(max(keys)) + mpf(10) ** (-mp.dps)) * min(mpf(1), 64 * cell * cell)
    return [i for i in _quiet_minima(grid) if _magnitude(keys[i]) < gate]


def locate_real_zeros(f, interval, ctx: PrecisionContext = None, refine_tol=None):
    """Real zeros of f on [a, b], with multiplicity, via sign-change scan.

    The crossing count is stabilized under golden-ratio grid refinement:
    three consecutive agreeing counts are required, and a count still moving
    at AXIS_MAX_POINTS points is a ResolutionError.  Double zeros leave no
    sign change; they are picked up as deep local minima of |f| and
    confirmed by locating the zeros in a square of one grid cell about the
    candidate.  A minimum whose nearby zeros turn out to be a genuinely
    nonreal conjugate pair is excluded (those belong to verify_all_real,
    not to the real-axis list).  Two simple zeros closer than the scan can
    separate are returned as a cluster pair, not merged.
    """
    ctx = ctx or PrecisionContext()
    fn = as_analytic(f)
    if not fn.real_on_axis():
        raise DomainError("locate_real_zeros requires a function real on the real axis")
    with ctx.workdps(5):
        a, b = mpf(interval[0]), mpf(interval[1])
        if not a < b:
            raise DomainError("empty interval")
        tol = mpf(refine_tol) if refine_tol is not None else ctx.target_abs_tol
        tol = max(tol, mpf(10) ** (3 - mp.dps))
        for grid in _golden_scan(fn, a, b, AXIS_POINTS, AXIS_MAX_POINTS):
            pass
        xs, signs, _, _, crossings, cell = grid

        def fx(x):
            return mpmath.re(fn(mpc(x, 0)))

        found: list = []

        # exact-zero grid points
        for i, s in enumerate(signs):
            if s == 0:
                found.append(LocatedZero(mpc(xs[i], 0), 1, mpf(0)))

        # sign-change cells -> bisection
        for i in crossings:
            lo, hi = xs[i], xs[i + 1]
            lo_positive = signs[i] > 0
            while hi - lo > tol:
                mid = (lo + hi) / 2
                fm = fx(mid)
                if fm == 0:
                    lo = hi = mid
                    break
                if (fm > 0) == lo_positive:
                    lo = mid
                else:
                    hi = mid
            root = (lo + hi) / 2
            found.append(LocatedZero(mpc(root, 0), 1, abs(fx(root))))

        # |f| minima without sign change -> possible double zeros, confirmed by
        # locating the zeros about them (skipped when one is pinned to the
        # contour).  The confirmation rectangle is square so its contour stays a
        # cell away from the candidate, and classification runs on the located
        # points, not on the box height.
        axis_cut = _AXIS_CUT * tol
        for i in _double_zero_candidates(grid):
            try:
                zs = locate_zeros(fn, Rectangle(xs[i] - cell, xs[i] + cell, -cell, cell), ctx)
            except ContourError:
                continue
            found += [z for z in zs.zeros if abs(mpmath.im(z.location)) <= axis_cut]

        found.sort(key=lambda z: mpmath.re(z.location))
        # de-duplicate anything the scan found twice
        unique: list = []
        for z in found:
            if unique and abs(z.location - unique[-1].location) < mpf(4) * max(tol, mpf(10) ** (-mp.dps + 4)):
                continue
            unique.append(z)
        # flag unresolved near-coincident pairs as clusters
        out: list = []
        for idx, z in enumerate(unique):
            near = False
            if idx > 0 and abs(z.location - unique[idx - 1].location) < 4 * cell:
                near = True
            if idx + 1 < len(unique) and abs(unique[idx + 1].location - z.location) < 4 * cell:
                near = True
            out.append(replace(z, cluster=z.cluster or near) if near else z)
        return out


# ---------------------------------------------------------------------------
# reality verdicts
# ---------------------------------------------------------------------------


def verify_all_real(
    measure: EvenMeasure,
    lam,
    window: Rectangle,
    ctx: PrecisionContext = None,
) -> RealityVerdict:
    """Certify (window-relative) that every zero of H in window is real.

    A count of all zeros in the window is compared against the real-axis
    count with multiplicity, each to tol = 10^-min(tol_digits, 20).

    When H is real on the axis (so even), its zeros come in conjugate
    pairs.  The count is then the winding along the upper half of the
    contour, or along a quarter of it when the window is centred at the
    origin (see _symmetric_count), and the scan covers [re_min, re_max], or
    [0, a] counted twice (see _axis_count).  A sign change between grid
    values whose |H| exceeds H's error estimate proves a real zero in that
    cell, so the certified sign changes give a lower bound on the real
    zeros.  The scan stops, and the verdict is "all real", on the first
    grid where that bound meets the count; it refines only while the bound
    is short.  On each grid where it is short, Newton runs from the
    quadratic Taylor roots at the deepest |H| minimum without a sign
    change, and Kantorovich's test on its limit (see _certify_minimum)
    either certifies a nonreal zero, which ends the verdict as "not all
    real" with that offender and its radius, or certifies a real pair,
    which raises the bound.  A bound above the count is a WindingError.
    If the refinement settles short (a double zero leaves no sign change),
    the window's zeros are located once against the count, and the verdict
    is "all real" when none lies more than _AXIS_CUT * tol off the axis;
    if it reaches its point budget unsettled, the verdict is refused with
    a ResolutionError.  A dip on the path grows the window about its
    centre, keeping its symmetry.

    A window the path cannot count (its count misses an integer, or H is
    not real-valued on the axis) is located once, against the count of the
    location's own sweep, which may nudge it off the axis, and judged by
    the same cut.

    A "not all real" verdict always carries an offender, of a conjugate
    pair the member below the axis: the certified one, or on a located
    window the located nonreal zero closest to the axis (see
    _worst_offender).  The margin is the certified strip half-width when
    all real, and the offender's |Im| otherwise.
    """
    ctx = ctx or PrecisionContext()
    with ctx.workdps(5):
        if not window.symmetric_about_axis():
            raise DomainError("verification window must be symmetric about the real axis")
        fn = transform_function(measure, lam, ctx)
        tol = mpf(10) ** (-min(ctx.tol_digits, 20))
        total, used = None, window
        if fn.real_on_axis():
            # a dip grows the window about its centre, keeping its symmetry
            total, used = _retry_on_dip(
                lambda r: _symmetric_count(fn, r), window, lambda r: r.grown(mpf("1.02"))
            )
        if total is not None:
            found = _axis_count(fn, used, total, tol)
            if isinstance(found, _Offender):
                z, r = found
                z = mpmath.conj(z) if mpmath.im(z) > 0 else z
                return RealityVerdict(
                    window=used, all_real=False, worst_offender=z,
                    margin=abs(mpmath.im(z)), offender_radius=r,
                )
            if found == total:
                return RealityVerdict(window=used, all_real=True, margin=used.im_max)

        # the rest is located once: a scan short of its count with no
        # certificate either way (against the certified count, which
        # location does not take again), and a window the path cannot count
        # (against the count of location's own sweep)
        zs = _locate_counted(fn, used, total, ctx)
        located = zs.rect
        axis_cut = _AXIS_CUT * tol
        offenders = [
            z.location for z in zs.zeros if abs(mpmath.im(z.location)) > axis_cut
        ]
        if not offenders:
            return RealityVerdict(
                window=located, all_real=True, margin=min(located.im_max, -located.im_min)
            )
        _check_quadruple_symmetry(fn, offenders)
        worst = _worst_offender(offenders, tol)
        return RealityVerdict(
            window=located,
            all_real=False,
            worst_offender=worst,
            margin=abs(mpmath.im(worst)),
        )


def _worst_offender(offenders, tol):
    """The offender closest to the axis, whatever order location found them
    in: of those whose |Im| is within 100 tol of the least, the one with the
    least (Im >= 0, Re, |Im|), so that of a conjugate pair the one below
    the axis is reported."""
    low = min(abs(mpmath.im(z)) for z in offenders)
    near = [z for z in offenders if abs(mpmath.im(z)) - low <= 100 * tol]
    return min(near, key=lambda z: (mpmath.im(z) >= 0, mpmath.re(z), abs(mpmath.im(z))))


class _Offender(NamedTuple):
    """A nonreal zero certified to lie within radius of location."""

    location: mpc
    radius: mpf


def _axis_count(fn, window: Rectangle, total, tol):
    """A certified lower bound on the real zeros of an even H in window,
    given the total zeros in it; or an _Offender that proves they are not
    all real.

    The scan covers [re_min, re_max], or [0, a] when window is centred at
    the origin.  There every real zero on (0, a) has its mirror on (-a, 0),
    and H(iy) = int cosh(yt) e^{lam t^2} d rho > 0 for a positive even rho,
    so neither the origin nor ib, where the quarter path ends, is a zero:
    each zero found counts twice.  A grid that leaves the certified lower
    bound short of total first tries _certify_minimum, which either ends
    the scan with an offender or may add a certified real pair to the
    bound.  A scan that settles short returns its last grid's bound.
    """
    if window.centered_at_origin():
        lo, mirrors, points = mpf(0), 2, ((AXIS_POINTS + 1) // 2, (AXIS_MAX_POINTS + 1) // 2)
    else:
        lo, mirrors, points = window.re_min, 1, (AXIS_POINTS, AXIS_MAX_POINTS)
    for grid in _golden_scan(fn, lo, window.re_max, *points):
        clear = grid.clear
        certain = mirrors * sum(1 for i in grid.crossings if clear[i] and clear[i + 1])
        if certain < total:
            found = _certify_minimum(fn, grid, window, tol)
            if isinstance(found, _Offender):
                return found
            certain += mirrors * found
        if certain > total:
            raise WindingError(
                "%d certified real zeros exceed the winding count %d" % (certain, total)
            )
        if certain == total:
            break
    return certain


def _certify_minimum(fn, grid, window: Rectangle, tol):
    """Zeros next to the deepest double-zero candidate x_i of grid, or
    without one, next to the deepest quiet minimum (a nonreal pair far off
    the axis leaves too shallow a minimum for the gate), proved by
    Kantorovich's theorem: an _Offender, or the number of real zeros (0 or
    2) certified in (x_{i-1}, x_{i+1}).  Neither cell there has a sign
    change, so those zeros are not among the grid's certified crossings.

    The quadratic Taylor step H + H' w + H'' w^2 / 2 = 0 at x_i predicts a
    conjugate pair or two real zeros.  For a pair, Newton starts from the
    root in the upper half plane, and its certified zero is an offender when
    the disk lies inside window and more than _AXIS_CUT * tol off the axis.
    For two real roots, Newton runs along the axis from each; a disk centred
    on the axis that holds exactly one zero holds a real zero (its conjugate
    is a zero in the same disk), so two disjoint disks inside
    (x_{i-1}, x_{i+1}) are two real zeros.  Only a transform with a
    second-derivative bound (a positive measure) takes part.
    """
    if not hasattr(fn, "second_derivative_bound"):
        return 0
    candidates = _double_zero_candidates(grid) or _quiet_minima(grid)
    if not candidates:
        return 0
    i = min(candidates, key=grid.keys.__getitem__)
    x = grid.xs[i]
    at = fn.parts(mpc(x, 0), ("value", "deriv", "moment2"))
    h, d, m2 = (mpmath.re(at[q].value) for q in ("value", "deriv", "moment2"))  # m2 = -H''
    if m2 == 0:
        return 0
    disc = d * d + 2 * h * m2  # of (m2 / 2) w^2 - d w - h = 0
    if disc < 0:
        z = mpc(x + d / m2, mpmath.sqrt(-disc) / abs(m2))
        got = _kantorovich(fn, z, window, tol, along_axis=False)
        if got is None or abs(mpmath.im(got[0])) - got[1] <= _AXIS_CUT * tol:
            return 0
        return _Offender(*got)
    cells = Rectangle(grid.xs[i - 1], grid.xs[i + 1], window.im_min, window.im_max)
    pair = [
        _kantorovich(fn, mpc(x + (d + s * mpmath.sqrt(disc)) / m2, 0), cells, tol, along_axis=True)
        for s in (1, -1)
    ]
    if None in pair or abs(pair[0][0] - pair[1][0]) <= pair[0][1] + pair[1][1]:
        return 0
    return 2


def _kantorovich(fn, z, box: Rectangle, tol, along_axis):
    """Newton from z to a zero z* of H with radius r, or None.

    Newton stops once its step is below tol, and gives up when it leaves
    box (or along_axis, where it steps along the real axis only).  With err
    the error estimate of H and H' at z*, eta = (|H| + err) / (|H'| - err)
    bounds |H/H'|, and M bounds |H''| on |Im| <= |Im z*| + 2 eta, which holds
    the disk of radius r = 2 eta about z*.  Then h = M eta / (|H'| - err)
    <= 1/2 proves exactly one zero in that disk (Kantorovich; Ortega, Amer.
    Math. Monthly 75 (1968) 658-660).  The disk must lie inside box.
    """
    stop = max(tol, mpf(10) ** (3 - mp.dps))
    for _ in range(_NEWTON_STEPS):
        p = fn.parts(z, ("value", "deriv"))
        v, d, err = p["value"].value, p["deriv"].value, p["value"].abs_error_estimate
        slope = abs(d) - err
        if slope <= 0:
            return None
        step = mpmath.re(v / d) if along_axis else v / d
        if abs(step) < stop:
            break
        z -= step
        if not box.contains(z):
            return None
    else:
        return None
    eta = (abs(v) + err) / slope
    r = 2 * eta
    if not box.contains(z, -r):
        return None
    try:
        M = fn.second_derivative_bound(abs(mpmath.im(z)) + r)
    except DomainError:
        return None
    if M * eta / slope > mpf(1) / 2:
        return None
    return z, r


def _check_quadruple_symmetry(fn, offenders):
    """Nonreal zeros of an even real-on-axis transform come in quadruples
    {z, -z, conj z, -conj z}; spot-check the mirrors by direct evaluation.
    Each point is evaluated once: the two members of a located conjugate
    pair share their quadruple and its probes."""
    if not fn.real_on_axis():
        return
    sizes = {}

    def size(z):
        if z not in sizes:
            sizes[z] = abs(fn(z))
        return sizes[z]

    for loc in offenders:
        here = size(loc)
        for mirror in (-loc, mpmath.conj(loc), -mpmath.conj(loc)):
            there = size(mirror)
            probe = size(mirror + mpf("0.1"))
            if there > max(mpf(100) * here, mpf("1e-3") * probe):
                raise WindingError(
                    "offender %s lacks its mirror %s (|f| %s vs %s nearby)"
                    % (
                        mpmath.nstr(loc, 8),
                        mpmath.nstr(mirror, 8),
                        mpmath.nstr(there, 4),
                        mpmath.nstr(probe, 4),
                    )
                )
