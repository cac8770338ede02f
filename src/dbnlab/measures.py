"""Even measures, their Gaussian-integrability tails, and their transforms.

An EvenMeasure is an immutable description of a finite positive even measure
rho on the line.  The transform of interest throughout the package is

    H_{rho,lam}(z) = int e^{izt} e^{lam t^2} d rho(t),

entire in z exactly when e^{lam t^2} is rho-integrable with room to spare,
which is what the TailSet records.

Everything that depends on the kind of a measure sits in one table, _KINDS,
with one _Kind entry per kind: SymmetricAtoms, GaussianConvolution and each
named density.  An entry holds the parameter names and shapes that
make_measure accepts, how a kind built from atoms is made from them, the
constraint on the values, the tail set, the log-envelope g with g' and
t_min (f(t) <= exp(-g(t)) for t >= t_min), an optional closed form for H,
H' and -H'', whether H is real on the real axis, and whether rho is
positive, which gives |H''| <= -H''(iy) on |Im z| <= y.  A density is
f = exp(-g) unless its entry gives f itself, as Phi and the Gaussian
convolution do.  A transform is compiled once per (measure, lambda): the
closed-form factory of the kind does all the work that does not depend on z
and returns an evaluator of z and its float64 twin, which a
TransformFunction keeps for all its points.  A MultipliedMeasure is not a
kind: it wraps a base measure and shifts lambda.

A kind without a closed form, whose density must then be even and analytic
on a strip about the real axis, takes a transform plan:
trapezoid nodes t_k = k h on [0, T], pre-weighted by h e^{lam t^2} f(t), one
plan per (measure, lambda, box |Re z| <= X, |Im z| <= Y, precision,
tolerance), kept in a small module cache that one-off eval_H calls share.
H, H' and -H'' are cosine lattice sums in powers of one e^{izh}.  The error
estimate of a point is the step-halving difference |T_h - T_2h| (at the
point and at the box corner, read from the same sum), the rounding of the
sum and the tail past T; a point whose estimate exceeds the tolerance
refines its plan, and past a node cap is refused with QuadratureError.
AbsExpGaussian (e^{-a|t|} has a kink at 0) has an erfc closed form; the
adaptive quadrature of numerics is only an independent reference.

The float64 twin of an evaluator sums the same sites (cos sums of atoms,
the Gaussian shape of the Gaussian, Case 6 and the convolution, the
lattice sums of plans and of Case 8 at lambda < 0, and Case 8's exact form
at lambda = 0) with stdlib math and cmath, and returns H, H', an a-priori
bound on the rounding plus the route's own error, and a log scale that
brings weights beyond the float range (the convolution's e^990 near b0)
back into it.  AbsExpGaussian has none: it needs a complex erfc.  The twin serves
decisions only, through TransformFunction.twin, which gives a value only
where its bound is TWIN_MARGIN below |H|; every reported number stays
mpmath.

Atom convention: an entry (t, w) with t > 0 is the symmetric pair carrying
total weight w, split w/2 at each of +-t; an entry (0, w) is a plain atom at
the origin.  Evenness is therefore structural, not checked.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import mpmath
from mpmath import mp, mpc, mpf

from . import numerics
from .precision import (
    DbnlabError,
    DomainError,
    EntirenessError,
    FieldError,
    PrecisionContext,
    QuadratureError,
    RangeError,
    TailBoundError,
)
from .numerics import TransformEval

__all__ = [
    "TailSet",
    "EvenMeasure",
    "DecayDescriptor",
    "symmetric_atoms",
    "make_measure",
    "named_density",
    "tail_set",
    "apply_gaussian_multiplier",
    "convolve_gaussian",
    "eval_H",
    "eval_H_parts",
    "transform_function",
    "partial_gaussian_mass",
]


@dataclass(frozen=True)
class TailSet:
    """The set {b : int e^{b x^2} d rho < infinity} in symbolic form."""

    shape: str  # AllReals | OpenUpTo | ClosedUpTo
    b0: mpf = None

    def contains_interior(self, lam) -> bool:
        """Whether lam sits strictly inside the tail set."""
        if self.shape == "AllReals":
            return True
        return mpf(lam) < self.b0

    def contains(self, lam) -> bool:
        if self.shape == "AllReals":
            return True
        if self.shape == "OpenUpTo":
            return mpf(lam) < self.b0
        return mpf(lam) <= self.b0

    def __str__(self):
        if self.shape == "AllReals":
            return "(-inf, inf)"
        br = ")" if self.shape == "OpenUpTo" else "]"
        return "(-inf, %s%s" % (mpmath.nstr(self.b0, 12), br)


@dataclass(frozen=True)
class DecayDescriptor:
    """Upper envelope f(t) <= exp(-g(t)) for t >= t_min, with g' available."""

    g: callable
    g_deriv: callable
    t_min: float


@dataclass(frozen=True)
class EvenMeasure:
    kind: str
    atoms: tuple = ()
    density_kind: str = None
    params: tuple = ()
    base: "EvenMeasure" = None
    b0: mpf = None
    lam: mpf = None
    norm: mpf = None

    # -- construction-time checks ------------------------------------------
    def __post_init__(self):
        if self.kind == "MultipliedMeasure":
            if self.base is None:
                raise ValueError("MultipliedMeasure requires a base measure")
            return
        name = self.density_kind or self.kind
        spec = _KINDS.get(name)
        if spec is None or (spec.from_atoms is None) != (self.kind == "NamedDensity"):
            raise ValueError("unknown measure kind %r" % (name,))
        if not spec.valid(_params(self)):
            raise ValueError("%s requires %s" % (name, spec.requires))

    # -- parameter access ---------------------------------------------------
    def param(self, name):
        for k, v in self.params:
            if k == name:
                return v
        raise KeyError(name)

    # -- density evaluation (quadrature kinds and convolution) --------------
    def density_value(self, t, dps: int):
        """f(t) at t >= 0 to dps digits, for kinds that carry a density."""
        return _density_value_cached(self, t, dps)

    @property
    def positive(self) -> bool:
        """Whether rho >= 0: true for every kind but Case6, and a
        MultipliedMeasure takes its base's value."""
        return _kind_of(self.base if self.kind == "MultipliedMeasure" else self).positive

    # -- decay envelope for tail truncation ---------------------------------
    def decay_descriptor(self) -> DecayDescriptor:
        spec, p = _kind_of(self), _params(self)
        if spec.g is None:
            raise DbnlabError("no decay descriptor for %r" % (self.density_kind or self.kind))
        return DecayDescriptor(partial(spec.g, p), partial(spec.g_deriv, p), spec.t_min(p))


def _kind_of(measure: EvenMeasure) -> "_Kind":
    """The table entry of a measure that is not a MultipliedMeasure."""
    return _KINDS[measure.density_kind or measure.kind]


def _params(measure: EvenMeasure) -> dict:
    """The parameters a table entry reads: the named ones, or atoms and b0."""
    if measure.density_kind is None:
        return {"atoms": measure.atoms, "b0": measure.b0}
    return dict(measure.params)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def symmetric_atoms(pairs, ctx: PrecisionContext = None) -> EvenMeasure:
    """Atomic even measure from (position, total weight) pairs.

    Position 0 entries are plain origin atoms; positive positions denote the
    symmetric +-t pair with the given total weight.
    """
    return make_measure("SymmetricAtoms", atoms=pairs, ctx=ctx)


def make_measure(
    kind: str, params=None, atoms=None, ctx: PrecisionContext = None
) -> EvenMeasure:
    """The measure of a table kind with exactly its params (README lists them).

    atoms, (position, total weight) pairs, go exactly with the kinds built
    from atoms.  Raises FieldError (field "atoms" or "params") for atoms
    against the kind and for a missing, unknown or wrongly shaped parameter
    (number, integer or list of numbers), and ValueError for an unknown kind
    or values that break the kind's constraint.
    """
    spec = _KINDS.get(kind)
    if spec is None:
        raise ValueError("unknown measure kind %r" % (kind,))
    if (atoms is None) != (spec.from_atoms is None):
        verb = "takes no" if spec.from_atoms is None else "needs"
        raise FieldError("atoms", "%s %s atoms" % (kind, verb))
    params = params or {}
    shapes = dict(spec.params)
    wrong = sorted(set(params) ^ set(shapes))
    if wrong:
        raise FieldError(
            "params",
            "%s: %s parameter params.%s (takes: %s)"
            % (kind, "unknown" if wrong[0] in params else "missing", wrong[0],
               ", ".join(shapes) or "none"),
        )
    ctx = ctx or PrecisionContext()
    with ctx.workdps():
        frozen = {name: _freeze(kind, name, shapes[name], params[name]) for name in sorted(shapes)}
        if spec.from_atoms is not None:
            base = EvenMeasure(
                kind="SymmetricAtoms", atoms=tuple(sorted((mpf(t), mpf(w)) for t, w in atoms))
            )
            return spec.from_atoms(base, ctx=ctx, **frozen)
        return EvenMeasure(kind="NamedDensity", density_kind=kind, params=tuple(frozen.items()))


def named_density(density_kind: str, ctx: PrecisionContext = None, **params) -> EvenMeasure:
    """The named density kind with exactly its parameters; see make_measure."""
    return make_measure(density_kind, params, ctx=ctx)


_NUMBER, _INTEGER, _LIST = "a finite number", "an integer", "a list of finite numbers"
_REAL = "a number"  # finite or not: the kind's constraint decides


def _freeze(kind, name, shape, value):
    if shape == _LIST:
        if isinstance(value, (list, tuple)):
            xs = tuple(mpf(x) for x in value)
            if all(mpmath.isfinite(x) for x in xs):
                return xs
    elif not isinstance(value, (list, tuple)):
        x = mpf(value)
        if shape == _REAL or shape == _NUMBER and mpmath.isfinite(x):
            return x
        if shape == _INTEGER and mpmath.isint(x):
            return int(x)
    raise FieldError("params", "%s: params.%s must be %s" % (kind, name, shape))


def convolve_gaussian(base: EvenMeasure, b0, ctx: PrecisionContext = None) -> EvenMeasure:
    """rho = base * N(0, 1/(2 b0)): atoms smeared by the Gaussian of rate b0.

    A point mass at the origin smears to the plain Gaussian density, so that
    case collapses to the named kind (up to a positive scalar, which nothing
    downstream depends on).
    """
    if base.kind != "SymmetricAtoms":
        raise ValueError("convolve_gaussian needs an atomic base measure")
    ctx = ctx or PrecisionContext()
    with ctx.workdps():
        if len(base.atoms) == 1 and base.atoms[0][0] == 0:
            return named_density("Gaussian", ctx, b0=mpf(b0))
        return EvenMeasure(
            kind="GaussianConvolution", base=base, atoms=base.atoms, b0=mpf(b0)
        )


def apply_gaussian_multiplier(
    measure: EvenMeasure, lam, normalize: bool = False, ctx: PrecisionContext = None
) -> EvenMeasure:
    """The measure e^{lam t^2} d rho(t), optionally normalized to mass 1.

    Atoms absorb the multiplier into their weights immediately; a Gaussian
    absorbs it into its rate when normalization is requested (the exponents
    just add); everything else becomes a MultipliedMeasure wrapper, with
    nested wrappers flattened so multipliers compose additively.
    """
    ctx = ctx or PrecisionContext()
    with ctx.workdps():
        lam = mpf(lam)
        if normalize and not tail_set(measure).contains_interior(lam):
            raise EntirenessError(
                "multiplier %s leaves the integrability range %s"
                % (lam, tail_set(measure))
            )
        if measure.kind == "SymmetricAtoms":
            scaled = tuple(
                (t, w * mpmath.exp(lam * t * t)) for t, w in measure.atoms
            )
            if normalize:
                total = sum(w for _, w in scaled)
                scaled = tuple((t, w / total) for t, w in scaled)
            return EvenMeasure(kind="SymmetricAtoms", atoms=scaled)
        rate = measure.density_kind and _kind_of(measure).rate
        if normalize and rate:
            p = _params(measure)
            p[rate] -= lam
            return named_density(measure.density_kind, ctx, **p)
        if measure.kind == "MultipliedMeasure":
            total_lam = measure.lam + lam
            base = measure.base
        else:
            total_lam = lam
            base = measure
        norm = None
        if normalize:
            norm = eval_H(base, total_lam, mpf(0), ctx).value.real
        return EvenMeasure(
            kind="MultipliedMeasure", base=base, lam=total_lam, norm=norm
        )


# ---------------------------------------------------------------------------
# tail sets
# ---------------------------------------------------------------------------


def tail_set(measure: EvenMeasure) -> TailSet:
    """Symbolic integrability set {b : int e^{b x^2} d rho < infinity}."""
    if measure.kind == "MultipliedMeasure":
        inner = tail_set(measure.base)
        if inner.shape == "AllReals":
            return inner
        return TailSet(inner.shape, inner.b0 - measure.lam)
    return _kind_of(measure).tail(_params(measure))


def _require_evaluable(measure: EvenMeasure, lam):
    # a ClosedUpTo endpoint is evaluable: the integral still converges there
    ts = tail_set(measure)
    if not ts.contains(lam):
        raise EntirenessError(
            "lambda=%s outside the entireness range %s" % (mpmath.nstr(mpf(lam), 10), ts)
        )


# ---------------------------------------------------------------------------
# cached density evaluation
# ---------------------------------------------------------------------------


# Plans of one measure share the nodes of one T (a geometric grid), whatever
# their lam: phi_verdict's 2 plans at seed 1 (3 at seed 3) make 66 (99) lookups
# of 33 nodes, and a Phi value costs 0.26-0.33 ms at 30 digits, so the hits
# save ~10 ms (~20 ms) of a ~0.13 s job (2-core host).
@lru_cache(maxsize=400_000)
def _density_value_cached(measure, t, dps):
    spec, p = _kind_of(measure), _params(measure)
    with mp.workdps(dps):
        if spec.density is not None:
            return spec.density(p, t, dps)
        if spec.g is None:
            raise DbnlabError(
                "%s has no pointwise density" % (measure.density_kind or measure.kind)
            )
        return mpmath.exp(-spec.g(p, t))


# ---------------------------------------------------------------------------
# per-kind pieces too long for a table line
# ---------------------------------------------------------------------------


def _atoms_valid(p):
    atoms = p["atoms"]
    return (
        bool(atoms)
        and sum(1 for t, _ in atoms if t == 0) <= 1
        and all(mpmath.isfinite(t) and mpmath.isfinite(w) and t >= 0 and w > 0
                for t, w in atoms)
    )


def _conv_density(p, t, dps):
    b0 = p["b0"]
    total = mpf(0)
    for tj, w in p["atoms"]:
        if tj == 0:
            total += w * mpmath.exp(-b0 * t * t)
        else:
            total += (
                w * (mpmath.exp(-b0 * (t - tj) ** 2) + mpmath.exp(-b0 * (t + tj) ** 2)) / 2
            )
    return mpmath.sqrt(b0 / mp.pi) * total


def _conv_g(p, t):
    # every smeared atom sits at |t_j| <= tmax, so past tmax the total mass W
    # spread by the kernel sqrt(b0/pi) e^{-b0 (t - tmax)^2} bounds the density
    b0 = p["b0"]
    tmax = max(tj for tj, _ in p["atoms"])
    W = sum(w for _, w in p["atoms"])
    return b0 * (t - tmax) ** 2 - mpmath.log(W * mpmath.sqrt(b0 / mp.pi))


def _dbn_g(p, t):
    val = p["alpha"] * t**4 + p["beta"] * t * t - mpmath.log(p["K"])
    if p["m"]:
        val -= 2 * p["m"] * mpmath.log(t)
    for a in p["a_list"]:
        r = t * t / (a * a)
        val += r - mpmath.log(1 + r)
    return val


def _dbn_g_deriv(p, t):
    val = 4 * p["alpha"] * t**3 + 2 * p["beta"] * t
    if p["m"]:
        val -= 2 * p["m"] / t
    for a in p["a_list"]:
        r = t * t / (a * a)
        val += (2 * t / (a * a)) * (1 - 1 / (1 + r))
    return val


# ---------------------------------------------------------------------------
# closed forms: each factory (p, lam, ctx) returns evaluate(z, parts) ->
# (values by part, absolute error estimate), and its float64 twin or None
# ---------------------------------------------------------------------------


def _cos_sums(origin, sites, z, parts, eps):
    """origin + sum W cos(tz), -sum W t sin(tz) and sum W t^2 cos(tz) over
    sites (t, W, W t, W t^2), t > 0, with one mpmath cos and sin per site.
    The error estimate is the rounding of sum |W| e^{|Im z| t}, eps times
    that sum."""
    growth = abs(z.imag)
    want_value, want_deriv, want_m2 = ("value" in parts, "deriv" in parts, "moment2" in parts)
    cos = sin = cos2 = mpc(0)
    size = abs(origin)
    for t, W, Wt, Wt2 in sites:
        amp = mpmath.exp(growth * t)
        C = 2 * mpmath.cos(t * z) if want_value or want_m2 else 0
        S = mpc(0, 2) * mpmath.sin(t * z) if want_deriv else 0
        size += abs(W) * amp
        if want_value:
            cos += W * C
        if want_m2:
            cos2 += Wt2 * C
        if want_deriv:
            sin += Wt * S
    out = {}
    if want_value:
        out["value"] = cos / 2 + origin
    if want_deriv:
        out["deriv"] = mpc(-sin.imag, sin.real) / 2  # i/2 times the sum of 2i sin
    if want_m2:
        out["moment2"] = cos2 / 2
    return out, size * eps


# ---------------------------------------------------------------------------
# float64 twins: each closed form and lattice sum also has a twin of z (a
# Python complex) and deriv -> (v, d, err, s), with H(z) = (v +- err) e^s and
# H'(z) ~ d e^s (d None without deriv); s is a float the twin picks, so it
# carries no error of its own.  err is an a-priori rounding bound (Higham,
# Accuracy and Stability of Numerical Algorithms, ch. 3): gamma_n times the
# sum of the terms' sizes, the argument reduction ~u |t z| of every cos and
# exp, the rounding of weights and z to floats, and a few ulps of libm per
# call, each counted twice over; plus the route's own error where it has
# one.  TransformFunction.twin turns this into a decision value.
# ---------------------------------------------------------------------------

_U = 2.0**-53  # unit roundoff of float64
_LN2 = math.log(2)


def _cos_twin(origin, sites):
    """The twin of _cos_sums over the same origin and sites.

    Each site is kept as (t, sign W, ln|W|), the origin as a site at t = 0,
    and s is the largest ln|W| + t |Im z|, so that no weight, however far
    out of the float range (GaussianConvolution's reach e^990 near b0),
    and no e^{t |Im z|} overflows: every term has size at most 1.
    """
    fsites = [
        (float(t), float(mpmath.sign(W)), float(mpmath.log(abs(W))))
        for t, W in [(mpf(0), origin)] + [site[:2] for site in sites]
        if W
    ]
    n = len(fsites) + 8

    def twin(z, deriv):
        x, y = z.real, z.imag
        reach = abs(x) + abs(y)
        s = max(lw + t * abs(y) for t, _, lw in fsites)
        vr = vi = dr = di = size = 0.0
        for t, sign, lw in fsites:
            # W e^{-s} (cosh ty, sinh ty) from e^{lw - s +- ty}, both <= 1
            up, down = math.exp(lw - s + t * y), math.exp(lw - s - t * y)
            ch, sh = sign * (up + down) / 2, sign * (up - down) / 2
            c, sn = math.cos(t * x), math.sin(t * x)
            vr += ch * c  # cos tz = cos tx cosh ty - i sin tx sinh ty
            vi -= sh * sn
            if deriv:  # -t sin tz = -t (sin tx cosh ty + i cos tx sinh ty)
                dr -= t * ch * sn
                di -= t * sh * c
            size += max(up, down) * (n + abs(lw) + abs(s) + 2 * t * reach)
        return complex(vr, vi), complex(dr, di) if deriv else None, 2 * _U * size, s

    return twin


def _lattice_twin(origin, fsites, z, deriv):
    """The twin of _lattice_sums with halving, over float sites (W_k,
    W_k t_k), k = 1, 2, ...: the value and H' (None without deriv), the
    step-halving difference of the parts (see _lattice_sums) and the
    rounding bound, all in the units of the weights.

    q^k by repeated products carries k times the relative error of q
    (libm and the reduction of z) and of one complex product.  A weight
    that underflows is off by at most 2^-1074, far below the bound of the
    largest term.
    """
    x, y = z.real, z.imag
    q, q_inv, grow = cmath.exp(complex(-y, x)), cmath.exp(complex(y, -x)), math.exp(abs(y))
    E = E_inv = 1 + 0j
    amp, size, odd = 1.0, abs(origin), 0
    cos, sin = [0j, 0j], [0j, 0j]  # [even k, odd k]
    for W, Wt in fsites:
        E, E_inv, amp, odd = E * q, E_inv * q_inv, amp * grow, odd ^ 1
        size += abs(W) * amp
        cos[odd] += W * (E + E_inv)
        if deriv:
            sin[odd] += Wt * (E - E_inv)
    value = (cos[0] + cos[1]) / 2 + origin
    gap = abs((cos[1] - cos[0]) / 2 - origin)
    d = None
    if deriv:
        d = 1j * (sin[0] + sin[1]) / 2
        gap = max(gap, abs((sin[1] - sin[0]) / 2))
    k = len(fsites)
    return value, d, gap, 2 * _U * size * (k * (6 + 2 * abs(z)) + 8)


def _lattice_sums(origin, sites, z, parts, eps, halving=False):
    """The sums of _cos_sums over the lattice k = 1, 2, 3, ..., cos(kz) and
    sin(kz) from powers of one e^{iz}.  Site k is (t_k, W_k, W_k t_k,
    W_k t_k^2): the moments carry the site's own position t_k, which a
    trapezoid plan scales by its step (t_k = k h, evaluated at z h).

    Returns the parts, with halving the same parts with the even k and the
    origin taken negative (odd-node sum minus even-node sum minus origin: a
    plan's step-halving difference) and otherwise None, and the rounding
    estimate eps sum |W_k| e^{|Im z| k}.
    """
    want_value, want_deriv, want_m2 = ("value" in parts, "deriv" in parts, "moment2" in parts)
    q, eg = mpmath.exp(mpc(-z.imag, z.real)), mpmath.exp(abs(z.imag))
    q_inv, E, E_inv, amp = 1 / q, mpc(1), mpc(1), mpf(1)
    zero = mpc(0)
    cos, sin, cos2 = [zero, zero], [zero, zero], [zero, zero]  # [even k, odd k]
    size = origin
    odd = 0
    for t, W, Wt, Wt2 in sites:
        # E = e^{ikz}: 2 cos(kz) = E + 1/E, 2i sin(kz) = E - 1/E
        E, E_inv, amp, odd = E * q, E_inv * q_inv, amp * eg, odd ^ 1
        size += W * amp  # the weights of a positive measure are positive
        if want_value or want_m2:
            C = E + E_inv
            if want_value:
                cos[odd] += W * C
            if want_m2:
                cos2[odd] += Wt2 * C
        if want_deriv:
            sin[odd] += Wt * (E - E_inv)
    alt = None
    if halving:
        alt = _lattice_parts([-cos[0], cos[1]], [-sin[0], sin[1]], [-cos2[0], cos2[1]], -origin,
                             parts)
    return _lattice_parts(cos, sin, cos2, origin, parts), alt, size * eps


def _lattice_parts(cos, sin, cos2, origin, parts):
    """The parts from the [even k, odd k] sums of W 2cos(kz), W t 2i sin(kz)
    and W t^2 2cos(kz)."""
    out = {}
    if "value" in parts:
        out["value"] = (cos[0] + cos[1]) / 2 + origin
    if "deriv" in parts:
        both = sin[0] + sin[1]
        out["deriv"] = mpc(-both.imag, both.real) / 2  # i/2 times the sum of 2i sin
    if "moment2" in parts:
        out["moment2"] = (cos2[0] + cos2[1]) / 2
    return out


def _rounding_eps():
    """Relative rounding allowance of a closed form at the current precision;
    a factory takes it once, at the precision its evaluations run at."""
    return mpf(10) ** (4 - mp.dps)


def _atom_sum(atoms):
    """Evaluator and twin of the transform of the atoms (t, W) at lam = 0."""
    origin = sum((W for t, W in atoms if t == 0), mpf(0))
    sites = sorted((t, W, W * t, W * t * t) for t, W in atoms if t != 0)
    eps = _rounding_eps()
    return lambda z, parts: _cos_sums(origin, sites, z, parts, eps), _cos_twin(origin, sites)


def _closed_form_err(vals, eps):
    scale = max(abs(v) for v in vals.values())
    return max(scale, mpf(1)) * eps


def _gaussian_shape_parts(c, k, S, z, parts, eps, S_err=0):
    """Parts of H(z) = k e^{-z^2/(4c)} S(z) from S = (S, S', S'').

    Only the derivatives of S that the requested parts use need be present.
    S_err bounds the error of S itself; it is carried as |k e^{-z^2/(4c)}|
    times S_err, on top of the rounding of the products here.
    """
    A = k * mpmath.exp(-z * z / (4 * c))
    out = {}
    if "value" in parts:
        out["value"] = A * S[0]
    if "deriv" in parts:
        out["deriv"] = A * (S[1] - z / (2 * c) * S[0])
    if "moment2" in parts:
        h2 = A * (S[2] - z / c * S[1] + (z * z / (4 * c * c) - 1 / (2 * c)) * S[0])
        out["moment2"] = -h2
    err = _closed_form_err(out, eps)
    if S_err:
        err += abs(A) * S_err
    return out, err


def _gaussian_shape_twin(c, k, S):
    """The twin of _gaussian_shape_parts, from the twin S(z, deriv) of S.

    |k e^{-z^2/(4c)}| joins the scale as ln k - Re z^2/(4c), so that a small
    c underflows nothing; the relative error of that factor (z^2, ln k,
    the phase and the sum that makes the scale) goes into the bound.
    """
    q, ln_k = float(1 / (4 * c)), float(mpmath.log(k))

    def twin(z, deriv):
        s_v, s_d, s_err, s_scale = S(z, deriv)
        w = z * z * q
        scale = ln_k - w.real + s_scale
        phase = complex(math.cos(w.imag), -math.sin(w.imag))
        d = phase * (s_d - 2 * q * z * s_v) if deriv else None
        rel = 2 * _U * (8 + 5 * abs(w) + abs(ln_k) + abs(s_scale) + abs(scale))
        return phase * s_v, d, s_err * (1 + rel) + abs(s_v) * rel, scale

    return twin


def _gaussian_closed(p, lam, ctx):
    c = p["b0"] - lam
    k, eps = mpmath.sqrt(mp.pi / c), _rounding_eps()
    return (lambda z, parts: _gaussian_shape_parts(c, k, (1, 0, 0), z, parts, eps),
            _gaussian_shape_twin(c, k, lambda z, deriv: (1, 0, 0.0, 0.0)))


def _case6_closed(p, lam, ctx):
    # rho = (1 + x) e^{-x^2}, so S(z) = 1 + iz/(2 alpha) with alpha = 1 - lam
    alpha = 1 - lam
    k, s1, eps = mpmath.sqrt(mp.pi / alpha), mpc(0, 1) / (2 * alpha), _rounding_eps()
    s1_f = float(s1.imag)

    def S_twin(z, deriv):
        s1z = complex(-s1_f * z.imag, s1_f * z.real)
        return 1 + s1z, 1j * s1_f, 4 * _U * (1 + abs(s1z)), 0.0

    return (lambda z, parts: _gaussian_shape_parts(alpha, k, (1 + s1 * z, s1, 0), z, parts, eps),
            _gaussian_shape_twin(alpha, k, S_twin))


def _conv_closed(p, lam, ctx):
    # each smeared atom at +-t contributes w e^{b0 t^2 (b0/c - 1)} cos(b0 t z/c)
    # to S: an atomic transform at positions b0 t/c
    b0 = p["b0"]
    c = b0 - lam
    S, S_twin = _atom_sum([(b0 * t / c, w * mpmath.exp(b0 * t * t * (b0 / c - 1)))
                           for t, w in p["atoms"]])
    k, eps = mpmath.sqrt(b0 / c), _rounding_eps()

    def evaluate(z, parts):
        order = 2 if "moment2" in parts else 1 if "deriv" in parts else 0
        s, s_err = S(z, ("value", "deriv", "moment2")[: order + 1])
        S2 = (s["value"], s.get("deriv"), -s.get("moment2", 0))
        return _gaussian_shape_parts(c, k, S2, z, parts, eps, s_err)

    return evaluate, _gaussian_shape_twin(c, k, S_twin)


@lru_cache(maxsize=4096)
def _case8_weight(k: int, dps: int) -> mpf:
    """Mass at +-k (k = 0: at the origin) of the (1+x^2)/2-weighted difference
    X of two Poisson(1/2)s: P(X = k) = e^{-1} I_k(1), and the weighting keeps
    the total mass exactly 1."""
    with mp.workdps(dps + 10):
        return (1 + k * k) * mpmath.exp(-1) * mpmath.besseli(k, 1) / (2 if k == 0 else 1)


def _case8_closed(p, lam, ctx):
    if lam == 0:
        eps = _rounding_eps()
        return lambda z, parts: _case8_exact(z, parts, eps), _case8_exact_twin
    # lam < 0 (the tail set is ClosedUpTo 0): the atoms weighted by e^{lam k^2},
    # as (k, W_k, k W_k, k^2 W_k), grown as far as the points evaluated need
    dps, tol, eps = mp.dps, mpf(10) ** (-(ctx.tol_digits + 5)), _rounding_eps()
    origin = _case8_weight(0, dps)
    sites, fsites = [], []  # fsites: (W_k, k W_k) as floats, for the twin

    def weight(k):
        while len(sites) < k:
            j = len(sites) + 1
            if j > 2000:
                raise RangeError("case8 atom expansion failed to terminate")
            W = _case8_weight(j, dps) * mpmath.exp(lam * j * j)
            sites.append((j, W, j * W, j * j * W))
        return sites[k - 1][1]

    def fweight(k):
        if k > len(fsites):
            weight(k)
            fsites.extend((float(W), float(Wt)) for _, W, Wt, _ in sites[len(fsites):])
        return fsites[k - 1][0]

    # keep every atom before the first k > 3 whose term W_k e^{|Im z| k} is
    # below tol, and bound what is dropped there: with m the highest power of
    # k the parts carry, the terms k^m W_k e^{|Im z| k} shrink past k by at
    # most the ratio r, because I_{k+1}(1) <= I_k(1)/(2(k+1)) and every
    # factor of r falls with k when lam <= 0.  r < 1 at the cut: r >= 1
    # there would make W_k e^{|Im z| k} >= 4 (as I_k(1) >= 2^-k/k!)

    def evaluate(z, parts):
        m = 2 if "moment2" in parts else 1 if "deriv" in parts else 0
        eg = mpmath.exp(abs(z.imag))
        amp, k = eg, 1
        while k <= 3 or weight(k) * amp >= tol:
            amp, k = amp * eg, k + 1
        r = ((1 + (k + 1) ** 2) * eg * mpmath.exp(lam * (2 * k + 1)) * mpf(k + 1) ** (m - 1)
             / (2 * (1 + k * k) * mpf(k) ** m))
        vals, _, err = _lattice_sums(origin, sites[: k - 1], z, parts, eps)
        return vals, err + mpf(k) ** m * weight(k) * amp / (1 - r)

    origin_f, lam_f, tol_f = float(origin), float(lam), float(tol)

    def twin(z, deriv):
        # the cut and the tail bound of evaluate, in floats
        m = 1 if deriv else 0
        eg = math.exp(abs(z.imag))
        amp, k = eg, 1
        while k <= 3 or fweight(k) * amp >= tol_f:
            amp, k = amp * eg, k + 1
        r = ((1 + (k + 1) ** 2) * eg * math.exp(lam_f * (2 * k + 1)) * (k + 1) ** (m - 1)
             / (2 * (1 + k * k) * k**m))
        if not r < 1:
            return None
        v, d, _, rounding = _lattice_twin(origin_f, fsites[: k - 1], z, deriv)
        return v, d, rounding + k**m * fweight(k) * amp / (1 - r), 0.0

    return evaluate, twin


def _case8_exact(z, parts, eps):
    # at lam = 0, E[e^{izX}] = (1/2) c (1+c) e^{c-1} with c = cos z
    c = mpmath.cos(z)
    s = mpmath.sin(z)
    E = mpmath.exp(c - 1)
    out = {}
    if "value" in parts:
        out["value"] = c * (1 + c) * E / 2
    if "deriv" in parts:
        out["deriv"] = -s * (1 + 3 * c + c * c) * E / 2
    if "moment2" in parts:
        h2 = -(c * (1 + 3 * c + c * c) - s * s * (4 + 5 * c + c * c)) * E / 2
        out["moment2"] = -h2
    return out, _closed_form_err(out, eps)


def _case8_exact_twin(z, deriv):
    """The twin of _case8_exact, with the scale Re cos z - 1 of e^{c - 1}.

    dc bounds the error of c = cos z (libm, and the reduction of z); it
    reaches H through c (1 + c) and through the exponent.
    """
    c = cmath.cos(z)
    phase = cmath.exp(complex(0, c.imag))
    C = abs(c)
    dc = _U * math.cosh(z.imag) * (4 + 3 * abs(z))
    err = dc * (1 + 3 * C + C * C) + _U * C * (1 + C) * (C + 8)
    d = -cmath.sin(z) * (1 + 3 * c + c * c) * phase / 2 if deriv else None
    return c * (1 + c) * phase / 2, d, err, c.real - 1


def _absexp_closed(p, lam, ctx):
    # H, H' and -H'' are sum_+- T(u), (-+i) T'(u) and T''(u) at u = a -+ iz, for
    # T(u) = int_0^inf e^{-ut - ct^2} dt with c = lam_p - lam: 1/u at c = 0 (for
    # Re u > 0), else sqrt(pi)/(2 sqrt c) E(u/(2 sqrt c)) with E(w) = e^{w^2} erfc w
    a, c, eps, k = p["a"], p["lam"] - lam, _rounding_eps(), mpmath.sqrt(mp.pi)
    r = 1 / (2 * mpmath.sqrt(c)) if c else None

    def T(u):
        if r is None:
            if u.real <= 0:
                raise TailBoundError("at lam = %s, H needs |Im z| < a = %s" % (lam, a))
            return 1 / u, -1 / u**2, 2 / u**3
        # E' = 2wE - 2/sqrt(pi) and E'' = 2E + 2wE' cancel down to O(E/|w|^2)
        # and O(E/|w|^4): take them with 2 log10(2 + |w|^2) extra digits
        w = u * r
        with mp.workdps(mp.dps + 2 * int(mpmath.log10(2 + abs(w) ** 2)) + 2):
            E = mpmath.exp(w * w) * mpmath.erfc(w)
            E1 = 2 * w * E - 2 / k
            return k * r * E, k * r * r * E1, k * r**3 * (2 * E + 2 * w * E1)

    def evaluate(z, parts):
        (u0, u1, u2), (d0, d1, d2) = T(a - 1j * z), T(a + 1j * z)
        pairs = dict(zip(_ALL_PARTS, ((u0, d0), (-1j * u1, 1j * d1), (u2, d2))))
        # the summands set the rounding: at large |z| they cancel to H's decay
        size = max(abs(pairs[q][0]) + abs(pairs[q][1]) for q in parts)
        return {q: pairs[q][0] + pairs[q][1] for q in parts}, max(size, 1) * eps

    return evaluate, None  # a complex erfc has no float64 twin here


# ---------------------------------------------------------------------------
# the kind table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Kind:
    """What this module knows about one kind of measure.

    Every callable takes the measure's parameter dict p (see _params) first.
    """

    tail: callable  # p -> TailSet
    params: tuple = ()  # (name, shape) pairs, exactly what make_measure takes
    requires: str = ""  # the constraint valid(p) checks, for error messages
    valid: callable = lambda p: True
    g: callable = None  # (p, t) -> g(t) with f(t) <= exp(-g(t)) for t >= t_min
    g_deriv: callable = None  # (p, t) -> g'(t)
    t_min: callable = lambda p: 0.25
    density: callable = None  # (p, t, dps) -> f(t) to dps digits, where f != exp(-g)
    # (p, lam, ctx) -> (evaluate, twin): evaluate(z, parts) -> (values, error
    # estimate) and its float64 twin or None, built once per (measure, lam)
    # with all the work that does not depend on z.
    # Without one a kind takes a trapezoid plan, which converges fast only
    # if f is even and analytic on a strip about the real axis: it must be
    closed: callable = None
    real_on_axis: bool = True
    # rho >= 0, so |H''| <= -H''(iy) on |Im z| <= y (second_derivative_bound)
    positive: bool = True
    rate: str = None  # the parameter a normalized Gaussian multiplier shifts by -lam
    from_atoms: callable = None  # (base atoms, ctx, **params) -> EvenMeasure; None for densities


_KINDS = {
    "SymmetricAtoms": _Kind(
        from_atoms=lambda base, ctx: base,
        requires="at least one atom, finite positions >= 0, finite weights > 0 "
        "and at most one atom at the origin",
        valid=_atoms_valid,
        tail=lambda p: TailSet("AllReals"),
        closed=lambda p, lam, ctx: _atom_sum([(t, w * mpmath.exp(lam * t * t))
                                              for t, w in p["atoms"]]),
    ),
    "GaussianConvolution": _Kind(
        from_atoms=convolve_gaussian,
        params=(("b0", _REAL),),
        requires="a finite b0 > 0",
        valid=lambda p: mpmath.isfinite(p["b0"]) and p["b0"] > 0,
        tail=lambda p: TailSet("OpenUpTo", p["b0"]),
        g=_conv_g,
        g_deriv=lambda p, t: 2 * p["b0"] * (t - max(tj for tj, _ in p["atoms"])),
        t_min=lambda p: float(max(tj for tj, _ in p["atoms"])) + 0.25,
        density=_conv_density,
        closed=_conv_closed,
    ),
    "RiemannPhi": _Kind(
        tail=lambda p: TailSet("AllReals"),
        # only the n = 1 term matters past u = 1/2, and 4 pi^2 < 40
        g=lambda p, u: mp.pi * mpmath.exp(2 * u) - mpf(9) / 2 * u - mpmath.log(mpf(40)),
        g_deriv=lambda p, u: 2 * mp.pi * mpmath.exp(2 * u) - mpf(9) / 2,
        t_min=lambda p: 0.5,
        density=lambda p, t, dps: numerics._phi_raw(t, dps, dps),
    ),
    # unnormalized by convention: the family e^{-b0 t^2} is closed under
    # Gaussian multipliers with no prefactor bookkeeping, and scalar
    # multiples never change a zero set
    "Gaussian": _Kind(
        params=(("b0", _NUMBER),),
        requires="b0 > 0",
        valid=lambda p: p["b0"] > 0,
        tail=lambda p: TailSet("OpenUpTo", p["b0"]),
        g=lambda p, t: p["b0"] * t * t,
        g_deriv=lambda p, t: 2 * p["b0"] * t,
        closed=_gaussian_closed,
        rate="b0",
    ),
    "ExpPower": _Kind(
        params=(("q", _INTEGER),),
        requires="q >= 2",
        valid=lambda p: p["q"] >= 2,
        tail=lambda p: TailSet("AllReals"),
        g=lambda p, t: t ** (2 * p["q"]),
        g_deriv=lambda p, t: 2 * p["q"] * t ** (2 * p["q"] - 1),
    ),
    "CoshExp": _Kind(
        params=(("a", _NUMBER),),
        requires="a > 0",
        valid=lambda p: p["a"] > 0,
        tail=lambda p: TailSet("AllReals"),
        g=lambda p, t: p["a"] * mpmath.cosh(t),
        g_deriv=lambda p, t: p["a"] * mpmath.sinh(t),
    ),
    # K t^{2m} e^{-alpha t^4 - beta t^2} prod_j (1 + t^2/a_j^2) e^{-t^2/a_j^2}
    "DBNClass": _Kind(
        params=(("K", _NUMBER), ("m", _INTEGER), ("alpha", _NUMBER),
                ("beta", _NUMBER), ("a_list", _LIST)),
        requires="K > 0, m >= 0, alpha >= 0, and beta > 0 or a non-empty "
        "a_list when alpha = 0",
        valid=lambda p: p["K"] > 0 and p["m"] >= 0 and p["alpha"] >= 0
        and (p["alpha"] > 0 or p["beta"] > 0 or bool(p["a_list"])),
        tail=lambda p: TailSet("AllReals") if p["alpha"] > 0 else TailSet(
            "OpenUpTo", p["beta"] + sum(1 / (a * a) for a in p["a_list"])
        ),
        g=_dbn_g,
        g_deriv=_dbn_g_deriv,
        t_min=lambda p: 1.0 if p["m"] else 0.25,
    ),
    "PolyaQuartic": _Kind(
        params=(("a", _NUMBER), ("b", _NUMBER), ("c", _NUMBER), ("q", _INTEGER)),
        requires="a > 0 and q >= 1",
        valid=lambda p: p["a"] > 0 and p["q"] >= 1,
        tail=lambda p: TailSet("AllReals"),
        g=lambda p, t: p["a"] * t ** (4 * p["q"]) - p["b"] * t ** (2 * p["q"])
        - p["c"] * t * t,
        g_deriv=lambda p, t: 4 * p["a"] * p["q"] * t ** (4 * p["q"] - 1)
        - 2 * p["b"] * p["q"] * t ** (2 * p["q"] - 1)
        - 2 * p["c"] * t,
    ),
    "SexticField": _Kind(
        params=(("a", _NUMBER), ("b", _NUMBER), ("c", _NUMBER)),
        requires="a > 0",
        valid=lambda p: p["a"] > 0,
        tail=lambda p: TailSet("AllReals"),
        g=lambda p, t: p["a"] * t**6 + p["b"] * t**4 + p["c"] * t * t,
        g_deriv=lambda p, t: 6 * p["a"] * t**5 + 4 * p["b"] * t**3 + 2 * p["c"] * t,
    ),
    # At b equal to the Gaussian rate lam the remaining factor (e^{-a|x|} or
    # (1+x^2)^{-theta} with theta > 1/2) is still integrable, so the endpoint
    # belongs to the tail set; the transform is just no longer entire there.
    "AbsExpGaussian": _Kind(
        params=(("a", _NUMBER), ("lam", _NUMBER)),
        requires="a > 0 and lam > 0",
        valid=lambda p: p["a"] > 0 and p["lam"] > 0,
        tail=lambda p: TailSet("ClosedUpTo", p["lam"]),
        g=lambda p, t: p["a"] * t + p["lam"] * t * t,
        g_deriv=lambda p, t: p["a"] + 2 * p["lam"] * t,
        closed=_absexp_closed,
    ),
    "PolyDecayGaussian": _Kind(
        params=(("lam", _NUMBER), ("theta", _NUMBER)),
        requires="theta > 1/2 and lam > 0",
        valid=lambda p: p["theta"] > mpf(1) / 2 and p["lam"] > 0,
        tail=lambda p: TailSet("ClosedUpTo", p["lam"]),
        g=lambda p, t: p["theta"] * mpmath.log(1 + t * t) + p["lam"] * t * t,
        g_deriv=lambda p, t: 2 * p["theta"] * t / (1 + t * t) + 2 * p["lam"] * t,
    ),
    "Case6": _Kind(
        tail=lambda p: TailSet("OpenUpTo", mpf(1)),
        closed=_case6_closed,
        real_on_axis=False,
        positive=False,  # (1 + x) e^{-x^2} is negative for x < -1
    ),
    "Case8": _Kind(
        tail=lambda p: TailSet("ClosedUpTo", mpf(0)),
        closed=_case8_closed,
    ),
}


# ---------------------------------------------------------------------------
# transform plans: the trapezoid route of densities analytic in a strip
# ---------------------------------------------------------------------------

_PLAN_NODES = 16  # nodes of a plan's first step, h = T/16
_PLAN_NODE_CAP = 4096  # a plan that needs more nodes refuses the point
_PLAN_CACHE = 32  # plans kept; the oldest is dropped first
_PLANS = {}  # (measure, lam, X, Y, dps, tol) -> _Plan
_ALL_PARTS = ("value", "deriv", "moment2")


class _Plan:
    """Pre-weighted trapezoid nodes t_k = k h, k = 0..n, on [0, T] for one
    (measure, lam, box |Re z| <= X, |Im z| <= Y, dps, tol).

    H(z) = c_0 + sum_k c_k cos(t_k z) with c_0 = h f(0) and
    c_k = 2h e^{lam t_k^2} f(t_k); H' and -H'' carry c_k t_k and c_k t_k^2.
    T makes the tail bound with growth Y at most tol/16 (both sides, every
    moment).  h starts at T/16 and halves until h <= pi/X and the
    step-halving difference |T_h - T_2h| at the corner X + iY is at most
    tol/8.

    Why both: by Poisson summation the full trapezoid sum at z is H(z) plus
    the aliases H(z + 2 pi m/h), m != 0, and T_2h - T_h is the sum of the
    aliases at odd multiples of pi/h.  With h <= pi/X and |Re z| <= X the
    nearest of those, H(z - pi/h) or H(z + pi/h), lies nearer the origin
    than every alias in the error, so where H decays away from the origin
    the difference bounds the error, and the corner bounds it for the whole
    box (H is even and real on the axis, so X + iY stands for all four
    corners).  Without the step bound a z at 2 pi/h reads H(0) with a
    difference of 0.
    """

    def __init__(self, measure, lam, X, Y, tol):
        dps = mp.dps
        T, tail = numerics._choose_truncation(
            measure.decay_descriptor(), lam, Y, tol / 16, (0, 1, 2)
        )
        # each sum drops its nodes past T, and a decreasing tail sums below
        # its integral: the h sum, its halving difference and the 2h sum
        self.T, self.tail = T, 3 * tail
        self.reach = max(T, 1) ** 2  # |t_k|^m <= reach for the moments m <= 2
        self.eps = _rounding_eps()
        self.corner, self.h_max = mpc(X, Y), mp.pi / X
        if T > _PLAN_NODE_CAP * self.h_max:
            raise _over_cap(T)
        # f to working precision: each node is weighed once, and eps covers it
        self._weight = lambda t: mpmath.exp(lam * t * t) * measure.density_value(t, dps)
        self._weigh([self._weight(T * k / _PLAN_NODES) for k in range(_PLAN_NODES + 1)])
        while self.h > self.h_max or self.corner_gap > tol / 8:
            self.refine()

    def _weigh(self, wf):
        """Take e^{lam t^2} f(t) at the n + 1 nodes of step T/n."""
        n = len(wf) - 1
        self.wf, self.h = wf, self.T / n
        self.origin = self.h * wf[0]
        self.sites = []
        for k in range(1, n + 1):
            t, c = self.T * k / n, 2 * self.h * wf[k]
            self.sites.append((t, c, c * t, c * t * t))
        self.corner_gap = self._sums(self.corner, _ALL_PARTS)[1]
        self.fsites = [(float(c), float(ct)) for _, c, ct, _ in self.sites]
        self.f_origin, self.f_h = float(self.origin), float(self.h)

    def refine(self):
        """Halve h: the new odd nodes join the old ones, which keep f."""
        n = 2 * (len(self.wf) - 1)
        if n > _PLAN_NODE_CAP:
            raise _over_cap(self.T)
        wf = [None] * (n + 1)
        wf[0::2] = self.wf
        wf[1::2] = [self._weight(self.T * k / n) for k in range(1, n, 2)]
        self._weigh(wf)

    def _sums(self, z, parts):
        vals, alt, rounding = _lattice_sums(
            self.origin, self.sites, z * self.h, parts, self.eps, halving=True
        )
        return vals, max(abs(d) for d in alt.values()), rounding

    def evaluate(self, z, parts):
        """The parts at z and their error estimate: the larger of the
        step-halving differences at z and at the corner, the rounding of
        the sum and the tail."""
        vals, gap, rounding = self._sums(z, parts)
        return vals, max(gap, self.corner_gap) + rounding * self.reach + self.tail

    def twin(self, z, deriv):
        """The twin of evaluate for value and deriv: its bound is the larger
        of the float step-halving differences and the corner's, the tail,
        and twice the rounding bound (the difference is a float sum too).
        The weights are a density's, far inside the float range: a weight
        that overflows makes a value that is not finite, which the caller
        refuses."""
        v, d, gap, rounding = _lattice_twin(self.f_origin, self.fsites, z * self.f_h, deriv)
        return v, d, max(gap, float(self.corner_gap)) + float(self.tail) + 2 * rounding, 0.0


def _over_cap(T):
    return QuadratureError(
        "trapezoid plan on [0, %s] needs more than %d nodes" % (mpmath.nstr(T, 6), _PLAN_NODE_CAP)
    )


def _cached_plan(key):
    """The cached plan of the smallest box that contains key's box, its own
    box included, among those of the same (measure, lam, dps, tol); None
    when no cached plan covers the box."""
    measure, lam, X, Y, dps, tol = key
    boxes = {
        (X2, Y2): plan for (m, l, X2, Y2, d, t), plan in _PLANS.items()
        if X2 >= X and Y2 >= Y and (m, l, d, t) == (measure, lam, dps, tol)
    }
    return boxes[min(boxes)] if boxes else None


def _planned(measure: EvenMeasure, lam, ctx: PrecisionContext):
    """evaluate(z, parts) through a plan whose box holds z; a point whose
    estimate exceeds tol refines that plan, and past the node cap is refused
    with QuadratureError.  The box rounds |Re z| up to a multiple of 8 and
    |Im z| up to an integer.  A point takes the plan of its own box or, when
    that box has none, any cached plan whose box contains its own: a plan's
    T, step and corner gap hold over its whole box, so a verdict builds only
    a few plans.  A plan is built only for a box that no cached plan
    covers.  Each box is resolved to its plan once per evaluator.  The twin
    takes the plan evaluate would, and leaves a box without one, and a
    point over tol, to evaluate."""
    dps, tol = mp.dps, ctx.target_abs_tol
    tol_f = float(tol)
    served = {}  # (X, Y) -> the plan that serves the box

    def plan_of(X, Y):
        plan = served.get((X, Y))
        if plan is None:
            plan = _cached_plan((measure, lam, X, Y, dps, tol))
            if plan is not None:
                served[X, Y] = plan
        return plan

    def evaluate(z, parts):
        X = 8 * max(1, int(mpmath.ceil(abs(z.real) / 8)))
        Y = int(mpmath.ceil(abs(z.imag)))
        plan = plan_of(X, Y)
        if plan is None:
            plan = served[X, Y] = _Plan(measure, lam, X, Y, tol)
            if len(_PLANS) >= _PLAN_CACHE:
                del _PLANS[next(iter(_PLANS))]
            _PLANS[measure, lam, X, Y, dps, tol] = plan
        while True:
            vals, err = plan.evaluate(z, parts)
            if err <= tol:
                return vals, err
            plan.refine()

    def twin(z, deriv):
        # z is a Python complex: math.ceil rounds its floats exactly
        plan = plan_of(8 * max(1, math.ceil(abs(z.real) / 8)), math.ceil(abs(z.imag)))
        if plan is None:
            return None
        got = plan.twin(z, deriv)
        return got if got[2] <= tol_f else None

    return evaluate, twin


# ---------------------------------------------------------------------------
# transform evaluation
# ---------------------------------------------------------------------------


def _compile(measure: EvenMeasure, lam, ctx: PrecisionContext):
    """evaluate(z, parts) -> {part: TransformEval} of H_{measure,lam}, and
    its float64 twin (None for a kind without one), with the entireness
    check, multiplied measures and the kind's factory done once.  A kind
    without a closed form takes a trapezoid plan."""
    _require_evaluable(measure, lam)
    if measure.kind == "MultipliedMeasure":
        inner, inner_twin = _compile(measure.base, measure.lam + lam, ctx)
        norm = measure.norm
        if norm is None:
            return inner, inner_twin
        sign, ln_norm = float(mpmath.sign(norm)), float(mpmath.log(abs(norm)))

        def twin(z, deriv):
            got = inner_twin(z, deriv)
            if got is None:
                return None
            v, d, err, scale = got
            shifted = scale - ln_norm
            err += abs(v) * 2 * _U * (2 + abs(ln_norm) + abs(shifted))
            return sign * v, d and sign * d, err, shifted

        return (lambda z, parts: {
            p: TransformEval(te.value / norm, te.abs_error_estimate / abs(norm), lam, z, te.n_evals)
            for p, te in inner(z, parts).items()
        }), inner_twin and twin
    spec = _kind_of(measure)
    if spec.closed is not None:
        closed, twin = spec.closed(_params(measure), lam, ctx)
    else:
        closed, twin = _planned(measure, lam, ctx)

    def evaluate(z, parts):
        vals, err = closed(z, parts)
        return {p: TransformEval(vals[p], err, lam, z, 0) for p in parts}

    return evaluate, twin


def eval_H_parts(
    measure: EvenMeasure, lam, z, ctx: PrecisionContext = None, parts=("value",), *,
    compiled=None
) -> dict:
    """Transform H, and optionally H' and -H'', dispatched per measure kind.

    "deriv" is the analytic derivative int (it) e^{izt} e^{lam t^2} d rho;
    "moment2" is int t^2 e^{izt} e^{lam t^2} d rho = -H''(z).  compiled is
    the evaluator a TransformFunction built for this measure and lam; without
    it one is built for this call (plans are shared through a module cache).
    """
    ctx = ctx or PrecisionContext()
    with ctx.workdps(10):
        evaluate = compiled or _compile(measure, mpf(lam), ctx)[0]
        return evaluate(mpc(z), parts)


def eval_H(measure, lam, z, ctx: PrecisionContext = None) -> TransformEval:
    return eval_H_parts(measure, lam, z, ctx, parts=("value",))["value"]


#: a twin's value stands for H only where its bound is this factor below it
TWIN_MARGIN = 2.0**20


class TransformFunction:
    """H_{rho,lam} packaged as a complex function with analytic derivative.

    The zeros module consumes this interface.  The evaluator and its float64
    twin are built once, at construction; every mpmath call still enters
    through eval_H_parts, while twin bypasses it.  value_and_derivative
    shares one pass: one closed-form evaluation or one lattice sum of a plan.
    """

    def __init__(self, measure: EvenMeasure, lam, ctx: PrecisionContext = None):
        self.measure = measure
        self.ctx = ctx or PrecisionContext()
        with self.ctx.workdps():
            self.lam = mpf(lam)
        with self.ctx.workdps(10):
            self._compiled, self._twin = _compile(measure, self.lam, self.ctx)

    def twin(self, z, deriv=False):
        """H(z), and H'(z) when deriv, from the float64 twin of the evaluator,
        for decisions only: (v, d, err, n) with |H(z) - v 2^n| <= err 2^n,
        err <= |v| / TWIN_MARGIN, and H'(z) ~ d 2^n (d None without deriv).

        None when the kind has no twin, the twin has no value at z (a plan
        box not built yet, a point over tol, an overflow), or its bound is
        not TWIN_MARGIN below |v|: that point takes mpmath.  The scale e^s
        of the twin becomes 2^n times a factor in [0.7, 1.42] that joins v.
        """
        if self._twin is None:
            return None
        try:
            got = self._twin(complex(z), deriv)
            if got is None:
                return None
            v, d, err, s = got
            n = round(s / _LN2)
            f = math.exp(s - n * _LN2)
        except (OverflowError, ValueError, ZeroDivisionError):
            return None
        err = (err + abs(v) * _U * (abs(s) + 4)) * f
        v = v * f
        if not TWIN_MARGIN * err <= abs(v) < math.inf:
            return None
        if deriv:
            d = d * f
            if not cmath.isfinite(d):
                return None
        return v, d, err, n

    def parts(self, z, parts):
        """{part: TransformEval} at z for parts among value, deriv, moment2,
        all from one evaluation and sharing its error estimate."""
        return eval_H_parts(self.measure, self.lam, z, self.ctx, parts, compiled=self._compiled)

    def __call__(self, z) -> mpc:
        return self.parts(z, ("value",))["value"].value

    def derivative(self, z) -> mpc:
        return self.parts(z, ("deriv",))["deriv"].value

    def value_and_derivative(self, z):
        parts = self.parts(z, ("value", "deriv"))
        return parts["value"].value, parts["deriv"].value

    def value_and_error(self, z):
        """H(z) and its absolute error estimate."""
        te = self.parts(z, ("value",))["value"]
        return te.value, te.abs_error_estimate

    def second_derivative_bound(self, y):
        """An upper bound on |H''| over the strip |Im z| <= y.

        For a positive even rho, |H''(z)| <= int t^2 cosh(t Im z) e^{lam t^2}
        d rho, which grows with |Im z|, so -H''(iy) bounds the strip: one
        moment2 evaluation, returned with its own error estimate added.
        Raises DomainError when rho is not positive.
        """
        if not self.measure.positive:
            raise DomainError("|H''| has no moment bound: the measure is not positive")
        te = self.parts(mpc(0, y), ("moment2",))["moment2"]
        return abs(te.value) + te.abs_error_estimate

    def real_on_axis(self) -> bool:
        """Whether H is real-valued for real z (true for even measures)."""
        m = self.measure
        return _kind_of(m.base if m.kind == "MultipliedMeasure" else m).real_on_axis


def transform_function(measure, lam, ctx: PrecisionContext = None) -> TransformFunction:
    return TransformFunction(measure, lam, ctx)


def partial_gaussian_mass(measure: EvenMeasure, b, T, ctx: PrecisionContext = None):
    """int_{|x| <= T} e^{b x^2} d rho, for tail-set spot checks.

    Deliberately makes no convergence claim: callers compare values across
    growing T to watch divergence or settling.
    """
    ctx = ctx or PrecisionContext()
    with ctx.workdps(10):
        b = mpf(b)
        T = mpf(T)
        if measure.kind == "SymmetricAtoms":
            return sum(
                w * mpmath.exp(b * t * t) for t, w in measure.atoms if t <= T
            )
        if measure.kind == "MultipliedMeasure":
            return partial_gaussian_mass(measure.base, b + measure.lam, T, ctx)
        dps = mp.dps

        def fn(t):
            return (2 * mpmath.exp(b * t * t) * measure.density_value(t, dps),)

        vals, _, _ = numerics.integrate_adaptive(
            fn, mpf(0), T, mpf(10) ** (-10), ncomp=1
        )
        return vals[0].real
