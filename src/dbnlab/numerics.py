"""Scalar kernels and the quadrature engine behind every transform evaluation.

Four jobs live here:

  * eval_phi      -- the super-exponentially decaying even density whose
                     Fourier transform is the completed zeta function,
                     Phi(u) = sum_n (4 pi^2 n^4 e^{9u/2} - 6 pi n^2 e^{5u/2})
                              * exp(-pi n^2 e^{2u})
  * eval_theta    -- the Jacobi theta sum  theta(x) = sum_{n in Z} e^{-pi n^2 x}
  * eval_xi_reference -- xi(z) = s(s-1) Gamma(s/2) pi^{-s/2} zeta(s), s = 1/2+iz,
                     computed through an alternating-series zeta. This is the
                     independent oracle the quadrature route is checked against.
  * eval_H_density -- adaptive Gauss-Legendre evaluation of
                     2 * int_0^T cos(z t) e^{lam t^2} f(t) dt
                     with an analytic bound for the discarded tail.  No
                     production route uses it: measures evaluates every
                     kind by its closed form or a transform plan
                     (trapezoid nodes, T from _choose_truncation as here),
                     and this stays as their independent reference for the
                     tests and the casebook.

Everything computes with mpmath at the precision carried by a
PrecisionContext and reports absolute error estimates, never bare values,
where an estimate is meaningful.  The one exception is integrate_adaptive
on Python float ends, which sums in float64 for the contour integrals of
zeros, whose results only feed decisions: winding counts and the power
sums that seed Newton.  Its panel estimates carry a bound on their own
rounding, so a panel float64 cannot resolve splits or fails; it is never
accepted silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
from mpmath import mp, mpc, mpf

from .precision import (
    PrecisionContext,
    PrecisionLossError,
    QuadratureError,
    RangeError,
    TailBoundError,
)

__all__ = [
    "TransformEval",
    "eval_phi",
    "eval_theta",
    "eval_xi_reference",
    "eval_H_density",
    "eval_H_density_parts",
    "integrate_adaptive",
]


@dataclass(frozen=True)
class TransformEval:
    """One evaluation of H_{rho,lam}(z) together with its error budget.

    abs_error_estimate is a-posteriori: accumulated panel discrepancies of
    the adaptive quadrature plus the analytic bound for the truncated tail,
    or a transform plan's step-halving difference plus its rounding and
    tail bounds.  Exact closed-form evaluations report the rounding-level
    estimate.
    """

    value: mpc
    abs_error_estimate: mpf
    lam: mpf
    z: mpc
    n_evals: int = 0


# ---------------------------------------------------------------------------
# series kernels
# ---------------------------------------------------------------------------

# Guard for exp(2|u|) in eval_phi.  mpmath exponents are bignums, so the real
# limit is "values whose logs no longer fit comfortably", not IEEE overflow.
_PHI_MAX_2U = 1.0e6


def eval_phi(u, ctx: PrecisionContext = None) -> mpf:
    """The even density Phi(u); series truncated below target_abs_tol.

    Evaluated at |u| and returned unchanged for negative u (the function is
    even).  Terms are positive and eventually collapse double-exponentially,
    so the truncation rule is: stop once the next term drops below
    target_abs_tol/10, after summing at least 3 terms.
    """
    ctx = ctx or PrecisionContext()
    with ctx.workdps(10):
        u = abs(mpf(u))
        if 2 * u > _PHI_MAX_2U:
            raise RangeError("eval_phi: exp(2|u|) out of range at |u|=%s" % u)
        return _phi_raw(u, mp.dps, ctx.tol_digits)


def _phi_raw(u: mpf, dps: int, tol_digits: int) -> mpf:
    with mp.workdps(dps):
        tol = mpf(10) ** (-tol_digits)
        w = mpmath.exp(2 * u)            # e^{2u}
        x = mpmath.exp(u / 2)            # e^{u/2}
        e9 = x ** 9                      # e^{9u/2}
        e5 = x ** 5                      # e^{5u/2}
        pi = mp.pi
        total = mpf(0)
        n = 1
        while True:
            n2 = n * n
            term = (4 * pi * pi * n2 * n2 * e9 - 6 * pi * n2 * e5) * mpmath.exp(
                -pi * n2 * w
            )
            total += term
            # peek at the next term for the stopping rule
            m = n + 1
            m2 = m * m
            nxt = (4 * pi * pi * m2 * m2 * e9 - 6 * pi * m2 * e5) * mpmath.exp(
                -pi * m2 * w
            )
            if n >= 3 and abs(nxt) < tol / 10:
                break
            if n > 600:  # unreachable for sane inputs; defensive cap
                raise RangeError("eval_phi: series failed to settle")
            n = m
        return total


def eval_theta(x, ctx: PrecisionContext = None) -> mpf:
    """theta(x) = sum_{n in Z} exp(-pi n^2 x) for x > 0."""
    ctx = ctx or PrecisionContext()
    with ctx.workdps(10):
        x = mpf(x)
        if not (x > 0):
            raise RangeError("eval_theta requires x > 0, got %s" % x)
        tol = ctx.target_abs_tol
        q = mpmath.exp(-mp.pi * x)
        total = mpf(1)
        n = 1
        while True:
            term = 2 * q ** (n * n)
            total += term
            nxt = 2 * q ** ((n + 1) * (n + 1))
            if n >= 3 and nxt < tol / 10:
                break
            if n > 10_000:
                raise RangeError("eval_theta: series failed to settle")
            n += 1
        return total


# ---------------------------------------------------------------------------
# completed-zeta reference route
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _borwein_coefficients(n: int) -> tuple:
    """Exact integer d_k of Borwein's alternating-series acceleration."""
    # d_k = n * sum_{i=0}^{k} (n+i-1)! 4^i / ((n-i)! (2i)!)
    ds = []
    acc = 0
    for i in range(n + 1):
        acc += (
            math.factorial(n + i - 1)
            * 4**i
            // (math.factorial(n - i) * math.factorial(2 * i))
        )
        ds.append(n * acc)
    return tuple(ds)


def _zeta_eta(s: mpc, digits: int) -> mpc:
    """eta(s) = sum (-1)^{k-1} k^{-s} by the accelerated alternating series.

    Error decays like (3+sqrt(8))^{-n} amplified by e^{pi |Im s|/2}, so the
    term count grows linearly with the requested digits and with |Im s|.
    """
    t = abs(mpmath.im(s))
    need = digits * math.log(10) + math.pi * float(t) / 2 + math.log(5 + 2 * float(t)) + 8
    n = max(12, int(need / math.log(3 + math.sqrt(8))) + 2)
    if n > 4000:
        raise RangeError("zeta height too large for the alternating series route")
    d = _borwein_coefficients(n)
    dn = mpf(d[n])
    acc = mpc(0)
    sign = 1
    for k in range(n):
        acc += sign * (d[k] - dn) / mpmath.power(k + 1, s)
        sign = -sign
    return -acc / dn


def eval_xi_reference(z, ctx: PrecisionContext = None) -> mpc:
    """xi(z) = (1/2) s(s-1) Gamma(s/2) pi^{-s/2} zeta(s) at s = 1/2 + iz.

    The 1/2 pins the normalization to the Fourier side: with it,
    xi(z) = int_{-inf}^{inf} e^{izu} Phi(u) du for the density of eval_phi
    (checked numerically to full working precision; without the 1/2 the two
    sides disagree by exactly a factor of 2).  That makes this function a
    genuinely independent oracle for the quadrature transform of Phi.

    zeta comes from the alternating (eta) series; the factor
    (s-1)/(1 - 2^{1-s}) that glues eta to zeta is evaluated through expm1 so
    the removable singularity at s = 1 costs no digits.  Arguments with
    Re s < 1/2 are routed through s -> 1-s (the completed function is
    invariant), which keeps Gamma(s/2) away from its poles.  Near the
    off-axis zeros of 1 - 2^{1-s} the working precision is raised by the
    number of digits the cancellation eats.
    """
    ctx = ctx or PrecisionContext()
    extra = 10
    for _attempt in range(4):
        with ctx.workdps(extra):
            z = mpc(z)
            s = mpf(1) / 2 + mpc(0, 1) * z
            if mpmath.re(s) < mpf(1) / 2:
                s = 1 - s
            ln2 = mpmath.ln(2)
            w = (1 - s) * ln2
            em = mpmath.expm1(w)           # = -(1 - 2^{1-s})
            if em == 0 and w != 0:
                extra += 40
                continue
            lost = 0
            if abs(w) > mpf(1) / 4 and abs(em) < mpf(1) / 4:
                lost = int(-mpmath.log10(abs(em))) + 4
            if lost > extra - 8:
                extra = lost + 20
                if extra > 2000:
                    raise PrecisionLossError(
                        "eval_xi_reference: cancellation beyond budget at s=%s" % s
                    )
                continue
            # (s-1)/(1-2^{1-s}) = w / (ln2 * expm1(w)), finite at s=1
            q = w / (ln2 * em) if w != 0 else 1 / ln2
            eta = _zeta_eta(s, mp.dps)
            val = (
                s
                * q
                * eta
                * mpmath.gamma(s / 2)
                * mpmath.power(mp.pi, -s / 2)
                / 2
            )
        with ctx.workdps():
            return mpc(val)
    raise PrecisionLossError("eval_xi_reference: failed to stabilize")


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre quadrature
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _gl_nodes(n: int, prec_bits: int) -> tuple:
    """Gauss-Legendre nodes/weights on [-1, 1] by Newton iteration."""
    with mp.workprec(prec_bits + 60):
        nodes = []
        tol = mpf(2) ** (-prec_bits - 30)
        for i in range(1, n // 2 + 1):
            x = mpf(math.cos(math.pi * (i - 0.25) / (n + 0.5)))
            for _ in range(100):
                p0, p1 = mpf(1), x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = n * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
                if abs(dx) < tol:
                    break
            p0, p1 = mpf(1), x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1)
            w = 2 / ((1 - x * x) * dp * dp)
            nodes.append((x, w))
            nodes.append((-x, w))
        if n % 2 == 1:
            x = mpf(0)
            p0, p1 = mpf(1), x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1)
            w = 2 / ((1 - x * x) * dp * dp)
            nodes.append((x, w))
    return tuple(nodes)


def _panel_sum(fn, a, b, nodes, ncomp):
    mid = (a + b) / 2
    half = (b - a) / 2
    acc = [mpc(0)] * ncomp
    for x, w in nodes:
        vals = fn(mid + half * x)
        for i in range(ncomp):
            acc[i] += w * vals[i]
    # the estimate of this route is the rules' discrepancy alone
    return [v * half for v in acc], (0,) * ncomp


#: unit roundoff of float64
_U = 2.0**-53


#: fraction bits of the fixed point in which _gl_nodes_float takes weights
_FIX_BITS = 128


@lru_cache(maxsize=8)
def _gl_nodes_float(n: int) -> tuple:
    """Gauss-Legendre nodes/weights on [-1, 1] in float64.

    Newton in float puts each node x within an ulp of the true one.  The
    weight 2/((1 - x^2) P_n'(x)^2) would move by 2|x|/(1 - x^2) ulp with
    that rounding (some 200 at n = 24), and more with the rounding of the
    recurrence, so it is taken in 128-bit fixed point at the float x and
    carried to the true node x + h, h = -P_n/P_n', to first order:
    w = 2 (1 - x^2)/(D^2 - 2 x P_n D) with D = (1 - x^2) P_n' =
    n (P_{n-1} - x P_n).  Each weight is then correctly rounded, or nearly.
    """

    def newton_node(x):
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dx = p1 * (x - 1) * (x + 1) / (n * (x * p1 - p0))
            x -= dx
            if abs(dx) < 1e-15:
                break
        return x

    def weight(x):
        one, X = 1 << _FIX_BITS, int(math.ldexp(x, _FIX_BITS))
        p0, p1 = one, X
        for k in range(2, n + 1):
            p0, p1 = p1, (((2 * k - 1) * X * p1 >> _FIX_BITS) - (k - 1) * p0) // k
        xp = X * p1 >> _FIX_BITS
        s, d = one - (X * X >> _FIX_BITS), n * (p0 - xp)
        return 2 * s * one / (d * d - 2 * xp * d)  # int / int rounds correctly

    nodes = []
    for i in range(1, n // 2 + 1):
        x = newton_node(math.cos(math.pi * (i - 0.25) / (n + 0.5)))
        w = weight(x)
        nodes.append((x, w))
        nodes.append((-x, w))
    if n % 2 == 1:
        nodes.append((0.0, weight(0.0)))
    return tuple(nodes)


def _panel_sum_float(fn, a, b, nodes, ncomp):
    """A panel's sums in complex, and for each a bound on its rounding:
    (n + 4) u sum |w_i f_i| |half|, n the rule's node count."""
    mid = (a + b) / 2
    half = (b - a) / 2
    acc = [0j] * ncomp
    mag = [0.0] * ncomp
    for x, w in nodes:
        vals = fn(mid + half * x)
        for i in range(ncomp):
            v = vals[i]
            acc[i] += w * v
            mag[i] += w * abs(v)
    scale = (len(nodes) + 4) * _U * abs(half)
    return [v * half for v in acc], [m * scale for m in mag]


#: node counts of the two Gauss-Legendre rules integrate_adaptive compares
#: on each panel
_QUAD_ORDER = 24
_QUAD_LOW_ORDER = 12


def integrate_adaptive(fn, a, b, abs_tol, *, max_depth: int = 42, ncomp: int = 1):
    """Adaptive panel-bisection quadrature of a (vector of) integrand(s).

    fn(t) must return a tuple of ncomp complex values.  Each panel is
    evaluated with Gauss-Legendre rules of _QUAD_ORDER and _QUAD_LOW_ORDER
    nodes; the discrepancy is the a-posteriori error estimate.  A panel is accepted when its estimate fits
    the share of abs_tol proportional to its width, otherwise it is split.

    The arithmetic follows the ends: on mpf ends it is mpmath at the
    current precision, and returns (values: list of mpc, err_estimate: mpf,
    n_evals: int).  On Python float ends it is float64: fn gets floats and
    may return complex values, the nodes come from float Newton, and each
    rule's rounding bound joins its panel's estimate, so a panel that
    float64 cannot resolve splits or raises QuadratureError.  It returns
    (values: list of complex, err_estimate: float, n_evals: int).
    """
    if isinstance(a, float) and isinstance(b, float):
        rules = (_gl_nodes_float(_QUAD_ORDER), _gl_nodes_float(_QUAD_LOW_ORDER))
        panel_sum, abs_tol = _panel_sum_float, float(abs_tol)
        total, err_total = [0j] * ncomp, 0.0
    else:
        a, b = mpf(a), mpf(b)
        abs_tol = mpf(abs_tol)
        rules = (_gl_nodes(_QUAD_ORDER, mp.prec), _gl_nodes(_QUAD_LOW_ORDER, mp.prec))
        panel_sum = _panel_sum
        total, err_total = [mpc(0)] * ncomp, mpf(0)
    width_full = b - a
    stack = [(a, b, 0)]
    n_evals = 0
    while stack:
        pa, pb, depth = stack.pop()
        (hi, hi_round), (lo, lo_round) = (panel_sum(fn, pa, pb, r, ncomp) for r in rules)
        n_evals += len(rules[0]) + len(rules[1])
        errs = [abs(hi[i] - lo[i]) + hi_round[i] + lo_round[i] for i in range(ncomp)]
        err = max(errs)
        budget = abs_tol * (pb - pa) / width_full
        # each component on its own: max would hide a nan
        if all(e <= budget for e in errs):
            for i in range(ncomp):
                total[i] += hi[i]
            err_total += err
        elif depth >= max_depth:
            raise QuadratureError(
                "panel [%s, %s] failed to converge (estimate %s > budget %s)"
                % (pa, pb, err, budget)
            )
        else:
            pm = (pa + pb) / 2
            stack.append((pa, pm, depth + 1))
            stack.append((pm, pb, depth + 1))
    return total, err_total, n_evals


# ---------------------------------------------------------------------------
# tail truncation for even-density transforms
# ---------------------------------------------------------------------------

_T_CAP = mpf("1e5")


def _tail_bound(power: int, T, phi_T, phip_T):
    """Bound int_T^inf t^power e^{-phi(t)} dt for convex increasing phi.

    Uses t(u) <= T + (u - phi(T))/phi'(T) along the substitution u = phi(t).
    """
    e = mpmath.exp(-phi_T)
    inv = 1 / phip_T
    if power == 0:
        return e * inv
    if power == 1:
        return e * (T * inv + inv * inv)
    if power == 2:
        return e * (T * T * inv + 2 * T * inv * inv + 2 * inv**3)
    raise ValueError("unsupported moment power %d" % power)


def _choose_truncation(descr, lam, growth, budget, powers):
    """Pick T so every requested tail moment bound sits below budget.

    descr supplies neg_log_envelope g with f(t) <= exp(-g(t)) for t >= t_min;
    phi(t) = g(t) - lam t^2 - growth*t must have positive, non-decreasing
    derivative past T for the bound to be valid.  T walks a fixed geometric
    grid so repeated evaluations with nearby parameters share node sets.
    """
    t = mpf(max(float(descr.t_min), 0.25))
    for _ in range(220):
        if t > _T_CAP:
            break
        phip = descr.g_deriv(t) - 2 * lam * t - growth
        if phip > 0:
            phip2 = descr.g_deriv(2 * t) - 4 * lam * t - growth
            if phip2 >= phip * (1 - mpf("1e-12")):
                phi = descr.g(t) - lam * t * t - growth * t
                worst = max(2 * _tail_bound(p, t, phi, phip) for p in powers)
                if worst < budget:
                    return t, worst
        t *= mpf(5) / 4
    raise TailBoundError(
        "no usable truncation point: multiplier %s too close to the entireness "
        "boundary for the requested tolerance" % lam
    )


def eval_H_density_parts(
    density,
    lam,
    z,
    ctx: PrecisionContext = None,
    *,
    parts=("value",),
):
    """Quadrature transform of an even density, with optional companions.

    parts may include, in any order:
      "value"   : 2 int_0^T cos(z t) e^{lam t^2} f(t) dt        (= H(z))
      "deriv"   : -2 int_0^T t sin(z t) e^{lam t^2} f(t) dt     (= H'(z))
      "moment2" : 2 int_0^T t^2 cos(z t) e^{lam t^2} f(t) dt    (= -H''(z))

    One adaptive pass serves all requested parts.  This is the reference
    that the closed forms and transform plans of measures are tested against.

    Returns {part: TransformEval}.
    """
    ctx = ctx or PrecisionContext()
    with ctx.workdps(10):
        lam = mpf(lam)
        z = mpc(z)
        growth = abs(mpmath.im(z))
        tol = ctx.target_abs_tol
        descr = density.decay_descriptor()
        power_of = {"value": 0, "deriv": 1, "moment2": 2}
        powers = tuple(power_of[p] for p in parts)
        T, tail = _choose_truncation(descr, lam, growth, tol / 2, powers)
        dps = mp.dps

        def fn(t):
            # f to working precision, as the plans take it
            wgt = mpmath.exp(lam * t * t) * density.density_value(t, dps)
            out = []
            for p in parts:
                if p == "value":
                    out.append(2 * wgt * mpmath.cos(z * t))
                elif p == "deriv":
                    out.append(-2 * wgt * t * mpmath.sin(z * t))
                else:
                    out.append(2 * wgt * t * t * mpmath.cos(z * t))
            return out

        values, qerr, n_evals = integrate_adaptive(fn, mpf(0), T, tol / 2, ncomp=len(parts))
        total_err = qerr + tail
        if total_err > tol:
            raise QuadratureError(
                "combined error %s exceeds target %s" % (total_err, tol)
            )
        return {
            p: TransformEval(values[i], total_err, lam, z, n_evals)
            for i, p in enumerate(parts)
        }


def eval_H_density(density, lam, z, ctx: PrecisionContext = None) -> TransformEval:
    """int e^{izt} e^{lam t^2} f(t) dt for an even density f (see parts variant)."""
    return eval_H_density_parts(density, lam, z, ctx, parts=("value",))["value"]
