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
H' and -H'', and whether H is real on the real axis.  A density is
f = exp(-g) unless its entry gives f itself, as Phi and the Gaussian
convolution do.  Kinds with a closed form are evaluated from
it; the others go through the adaptive quadrature in numerics.  A
MultipliedMeasure is not a kind: it wraps a base measure and shifts lambda.

Atom convention: an entry (t, w) with t > 0 is the symmetric pair carrying
total weight w, split w/2 at each of +-t; an entry (0, w) is a plain atom at
the origin.  Evenness is therefore structural, not checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import mpmath
from mpmath import mp, mpc, mpf

from . import numerics
from .precision import (
    DbnlabError,
    EntirenessError,
    FieldError,
    PrecisionContext,
    RangeError,
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
    def density_value(self, t, dps: int, tol_digits: int):
        """f(t) at t >= 0 for kinds that carry a density."""
        return _density_value_cached(self, t, dps, tol_digits)

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


@lru_cache(maxsize=400_000)
def _density_value_cached(measure, t, dps, tol_digits):
    spec, p = _kind_of(measure), _params(measure)
    with mp.workdps(dps):
        if spec.density is not None:
            return spec.density(p, t, dps, tol_digits)
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


def _conv_density(p, t, dps, tol_digits):
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
# Case-8 discrete expansion (Poisson-difference reweighted by (1+k^2)/2)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _case8_atoms(dps: int, tol_digits: int, growth_ceil: int = 0) -> tuple:
    """Atoms of the (1+x^2)/2-weighted difference of two Poisson(1/2)s.

    P(W = k) = e^{-1} I_k(1) (Skellam with both rates 1/2); the x^2 weighting
    makes the total mass exactly 1, so no normalization is applied.

    growth_ceil bounds |Im z| for the intended evaluations: truncation keeps
    every atom whose weight times e^{growth_ceil * k} is above tolerance, so
    off-axis amplification of the dropped tail stays below budget.  The
    factorial decay of I_k(1) beats any exponential, so this terminates for
    any growth bound.
    """
    with mp.workdps(dps + 10):
        tol = mpf(10) ** (-(tol_digits + 5))
        pairs = []
        e1 = mpmath.exp(-1)
        w0 = e1 * mpmath.besseli(0, 1) / 2
        pairs.append((mpf(0), w0))
        k = 1
        while True:
            w = (1 + k * k) * e1 * mpmath.besseli(k, 1)
            if k > 3 and w * mpmath.exp(growth_ceil * k) < tol:
                break
            pairs.append((mpf(k), w))
            k += 1
            if k > 2000:
                raise RangeError("case8 atom expansion failed to terminate")
        return tuple(pairs)


# ---------------------------------------------------------------------------
# closed forms: each returns (values by part, absolute error estimate)
# ---------------------------------------------------------------------------


def _atomic_parts(atoms, lam, z, parts):
    growth = abs(mpmath.im(z))
    out = {p: mpc(0) for p in parts}
    size = mpf(0)
    for t, w in atoms:
        wl = w * mpmath.exp(lam * t * t)
        size += abs(wl) * mpmath.exp(growth * t)
        if t == 0:
            if "value" in out:
                out["value"] += wl
            continue
        if "value" in out:
            out["value"] += wl * mpmath.cos(z * t)
        if "deriv" in out:
            out["deriv"] += -wl * t * mpmath.sin(z * t)
        if "moment2" in out:
            out["moment2"] += wl * t * t * mpmath.cos(z * t)
    err = size * mpf(10) ** (4 - mp.dps)
    return out, err


def _closed_form_err(vals):
    scale = max(abs(v) for v in vals.values())
    return max(scale, mpf(1)) * mpf(10) ** (4 - mp.dps)


def _gaussian_shape_parts(c, k, S, z, parts):
    """Parts of H(z) = k e^{-z^2/(4c)} S(z) from S = (S, S', S'').

    Only the derivatives of S that the requested parts use need be present.
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
    return out, _closed_form_err(out)


def _gaussian_closed(p, lam, z, parts, ctx):
    c = p["b0"] - lam
    return _gaussian_shape_parts(c, mpmath.sqrt(mp.pi / c), (1, 0, 0), z, parts)


def _case6_closed(p, lam, z, parts, ctx):
    # rho = (1 + x) e^{-x^2}, so S(z) = 1 + iz/(2 alpha) with alpha = 1 - lam
    alpha = 1 - lam
    S = (1 + mpc(0, 1) * z / (2 * alpha), mpc(0, 1) / (2 * alpha), 0)
    return _gaussian_shape_parts(alpha, mpmath.sqrt(mp.pi / alpha), S, z, parts)


def _conv_closed(p, lam, z, parts, ctx):
    b0 = p["b0"]
    c = b0 - lam
    order = 2 if "moment2" in parts else 1 if "deriv" in parts else 0
    S = [mpc(0)] * (order + 1)
    for t, w in p["atoms"]:
        if t == 0:
            S[0] += w
            continue
        gam = b0 * t / c
        beta = mpmath.exp(b0 * t * t * (b0 / c - 1))
        cos = mpmath.cos(gam * z)
        S[0] += w * beta * cos
        if order >= 1:
            S[1] += -w * beta * gam * mpmath.sin(gam * z)
        if order >= 2:
            S[2] += -w * beta * gam * gam * cos
    return _gaussian_shape_parts(c, mpmath.sqrt(b0 / c), S, z, parts)


def _case8_closed(p, lam, z, parts, ctx):
    if lam != 0:
        growth_ceil = int(mpmath.ceil(abs(mpmath.im(z))))
        atoms = _case8_atoms(mp.dps, ctx.tol_digits, growth_ceil)
        return _atomic_parts(atoms, lam, z, parts)
    # E[e^{izX}] = (1/2) c (1+c) e^{c-1} with c = cos z
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
    return out, _closed_form_err(out)


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
    density: callable = None  # (p, t, dps, tol_digits) -> f(t), where f != exp(-g)
    closed: callable = None  # (p, lam, z, parts, ctx) -> (values, error estimate)
    real_on_axis: bool = True
    rate: str = None  # the parameter a normalized Gaussian multiplier shifts by -lam
    from_atoms: callable = None  # (base atoms, ctx, **params) -> EvenMeasure; None for densities


_KINDS = {
    "SymmetricAtoms": _Kind(
        from_atoms=lambda base, ctx: base,
        requires="at least one atom, finite positions >= 0, finite weights > 0 "
        "and at most one atom at the origin",
        valid=_atoms_valid,
        tail=lambda p: TailSet("AllReals"),
        closed=lambda p, lam, z, parts, ctx: _atomic_parts(p["atoms"], lam, z, parts),
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
        density=lambda p, t, dps, tol_digits: numerics._phi_raw(t, dps, tol_digits),
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
    ),
    "Case8": _Kind(
        tail=lambda p: TailSet("ClosedUpTo", mpf(0)),
        closed=_case8_closed,
    ),
}


# ---------------------------------------------------------------------------
# transform evaluation
# ---------------------------------------------------------------------------


def eval_H_parts(
    measure: EvenMeasure, lam, z, ctx: PrecisionContext = None, parts=("value",), **kw
) -> dict:
    """Transform H, and optionally H' and -H'', dispatched per measure kind.

    "deriv" is the analytic derivative int (it) e^{izt} e^{lam t^2} d rho;
    "moment2" is int t^2 e^{izt} e^{lam t^2} d rho = -H''(z).
    """
    ctx = ctx or PrecisionContext()
    with ctx.workdps(10):
        lam = mpf(lam)
        z = mpc(z)
        _require_evaluable(measure, lam)

        if measure.kind == "MultipliedMeasure":
            inner = eval_H_parts(measure.base, measure.lam + lam, z, ctx, parts, **kw)
            if measure.norm is not None:
                inner = {
                    p: TransformEval(
                        te.value / measure.norm,
                        te.abs_error_estimate / abs(measure.norm),
                        lam,
                        z,
                        te.n_evals,
                    )
                    for p, te in inner.items()
                }
            return inner

        closed = _kind_of(measure).closed
        if closed is None:
            # density kinds without closed form: adaptive quadrature
            return numerics.eval_H_density_parts(measure, lam, z, ctx, parts=parts, **kw)
        vals, err = closed(_params(measure), lam, z, parts, ctx)
        return {p: TransformEval(vals[p], err, lam, z, 0) for p in parts}


def eval_H(measure, lam, z, ctx: PrecisionContext = None, **kw) -> TransformEval:
    return eval_H_parts(measure, lam, z, ctx, parts=("value",), **kw)["value"]


class TransformFunction:
    """H_{rho,lam} packaged as a complex function with analytic derivative.

    The zeros module consumes this interface; value_and_derivative shares a
    single quadrature pass for density measures.
    """

    def __init__(self, measure: EvenMeasure, lam, ctx: PrecisionContext = None):
        self.measure = measure
        self.ctx = ctx or PrecisionContext()
        with self.ctx.workdps():
            self.lam = mpf(lam)

    def __call__(self, z) -> mpc:
        return eval_H_parts(self.measure, self.lam, z, self.ctx, ("value",))[
            "value"
        ].value

    def derivative(self, z) -> mpc:
        return eval_H_parts(self.measure, self.lam, z, self.ctx, ("deriv",))[
            "deriv"
        ].value

    def value_and_derivative(self, z):
        parts = eval_H_parts(self.measure, self.lam, z, self.ctx, ("value", "deriv"))
        return parts["value"].value, parts["deriv"].value

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
            return (2 * mpmath.exp(b * t * t) * measure.density_value(t, dps, ctx.tol_digits),)

        vals, _, _ = numerics.integrate_adaptive(
            fn, mpf(0), T, mpf(10) ** (-10), ncomp=1
        )
        return vals[0].real
