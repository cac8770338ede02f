"""Brute-force circle and reality checks for small ferromagnetic systems.

For n two-valued sites with non-negative symmetric couplings, the field
transform F(z) = sum_m c_m e^{imz} collects Boltzmann weight by total
spin; multiplying by y^n in y = e^{iz} gives an ordinary polynomial of
degree 2n whose roots all sit on the unit circle whenever the couplings
are ferromagnetic.  The verification here is direct: enumerate, build the
polynomial, find every root, and report the worst distance from the
circle.

Continuum single-site measures with quartic or sextic exponential decay
go through the quadrature transform and the window-based reality check
instead of the polynomial route.
"""

from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf

from .measures import EvenMeasure, named_density
from .precision import DomainError, FieldError, PrecisionContext
from .zeros import Rectangle, RealityVerdict, verify_all_real

__all__ = [
    "SiteMeasure",
    "PLUS_MINUS_ONE",
    "phi4",
    "phi6",
    "SpinSystem",
    "PartitionPolynomial",
    "CircleVerdict",
    "build_partition_polynomial",
    "verify_leeyang",
    "search_sextic_violation",
]

MAX_SITES = 20


@dataclass(frozen=True)
class SiteMeasure:
    """Distribution of a single site variable.

    kind PlusMinusOne is the two-point measure at +-1 (density None); Phi4
    carries density e^{-a s^4 - b s^2}; Phi6 carries e^{-a s^6 - b s^4 -
    c s^2}.  The density is the measure the circle check examines.
    """

    kind: str
    density: EvenMeasure = None

    @classmethod
    def make(cls, kind, params=None, ctx: PrecisionContext = None) -> "SiteMeasure":
        """The site of a table kind with exactly its parameters."""
        spec = _SITE_KINDS.get(kind)
        if spec is None:
            raise FieldError("kind", "expected one of %s, got %r" % (", ".join(_SITE_KINDS), kind))
        return spec.site(params or {}, ctx)


@dataclass(frozen=True)
class _SiteKind:
    """What this module knows about one kind of site measure."""

    name: str
    params: tuple = ()  # parameter names, in the order phi4 and phi6 take them
    positive: tuple = ()  # the parameters that must be > 0
    density: callable = None  # (ctx, *params) -> EvenMeasure; None: two-point

    def site(self, params: dict, ctx: PrecisionContext) -> SiteMeasure:
        """The site with exactly these params; FieldError names one at fault."""
        wrong = sorted(set(params) ^ set(self.params))  # unknown or missing
        if wrong:
            raise FieldError(
                "params.%s" % wrong[0],
                "%s takes exactly %s" % (self.name, ", ".join(self.params) or "no parameters"),
            )
        for name in self.params:
            x = mpf(params[name])
            positive = name in self.positive
            if not mpmath.isfinite(x) or positive and not x > 0:
                bound = " > 0" if positive else ""
                raise FieldError("params.%s" % name, "%s needs a finite %s%s" % (self.name, name, bound))
        if self.density is None:
            return SiteMeasure(self.name)
        return SiteMeasure(self.name, self.density(ctx, *(params[n] for n in self.params)))


#: every kind of site measure, the only place that names them
_TWO_POINT, _QUARTIC, _SEXTIC = _SITE_TABLE = (
    _SiteKind("PlusMinusOne"),
    _SiteKind(
        "Phi4", ("a", "b"), positive=("a",),
        density=lambda ctx, a, b: named_density(
            "DBNClass", ctx, K=1, m=0, alpha=a, beta=b, a_list=()
        ),
    ),
    _SiteKind(
        "Phi6", ("a", "b", "c"), positive=("a",),
        density=lambda ctx, a, b, c: named_density("SexticField", ctx, a=a, b=b, c=c),
    ),
)
_SITE_KINDS = {spec.name: spec for spec in _SITE_TABLE}

PLUS_MINUS_ONE = _TWO_POINT.site({}, None)


def phi4(a, b, ctx: PrecisionContext = None) -> SiteMeasure:
    return _QUARTIC.site({"a": a, "b": b}, ctx)


def phi6(a, b, c, ctx: PrecisionContext = None) -> SiteMeasure:
    return _SEXTIC.site({"a": a, "b": b, "c": c}, ctx)


@dataclass(frozen=True)
class SpinSystem:
    """n sites, symmetric non-negative couplings, inverse temperature.

    search_mode lifts the coupling sign restriction so that deliberately
    broken systems can be probed for off-circle roots.
    """

    n: int
    couplings: tuple
    beta: float
    site_measure: SiteMeasure
    field_weights: tuple
    search_mode: bool = False

    @classmethod
    def make(
        cls,
        couplings,
        beta=1,
        site_measure: SiteMeasure = PLUS_MINUS_ONE,
        field_weights=None,
        search_mode=False,
    ) -> "SpinSystem":
        rows = tuple(tuple(float(v) for v in row) for row in couplings)
        n = len(rows)
        if n < 1 or n > MAX_SITES:
            raise FieldError("couplings", "need 1 <= n <= %d sites" % MAX_SITES)
        if any(len(row) != n for row in rows):
            raise FieldError("couplings", "couplings must be an n x n matrix")
        for i in range(n):
            if rows[i][i] != 0:
                raise FieldError("couplings", "couplings must have zero diagonal")
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise FieldError("couplings", "couplings must be symmetric")
                if rows[i][j] < 0 and not search_mode:
                    raise FieldError(
                        "couplings",
                        "negative coupling J[%d][%d] requires search_mode" % (i, j),
                    )
        if not float(beta) >= 0:
            raise FieldError("beta", "beta must be non-negative")
        if field_weights is None:
            weights = (1.0,) * n
        else:
            weights = tuple(float(w) for w in field_weights)
            if len(weights) != n:
                raise FieldError("field_weights", "need one field weight per site")
            if any(w < 0 for w in weights):
                raise FieldError("field_weights", "field weights must be non-negative")
        return cls(
            n=n,
            couplings=rows,
            beta=float(beta),
            site_measure=site_measure,
            field_weights=weights,
            search_mode=bool(search_mode),
        )


@dataclass(frozen=True)
class PartitionPolynomial:
    """Normalized Boltzmann weight by total spin.

    ms is the ascending tuple of attainable total spins -n, -n+2, ..., n
    and coefficients the matching weights; evenness c_m = c_{-m} is exact
    by construction (each configuration is enumerated jointly with its
    global flip).  F(z) = sum_m c_m e^{imz}.
    """

    n: int
    ms: tuple
    coefficients: tuple

    def __call__(self, z):
        z = mpmath.mpmathify(z)
        return mpmath.fsum(
            c * mpmath.exp(mpmath.mpc(0, m) * z)
            for m, c in zip(self.ms, self.coefficients)
        )

    def y_polynomial(self):
        """Coefficients of y^n F(y), ascending in powers of y."""
        out = [mpf(0)] * (2 * self.n + 1)
        for m, c in zip(self.ms, self.coefficients):
            out[m + self.n] = c
        return out


@dataclass(frozen=True)
class CircleVerdict:
    """Outcome of a root-location check.

    For the polynomial route, roots are in the y = e^{iz} variable and
    max_deviation is max ||root| - 1|; on_circle applies the tolerance.
    For the quadrature route the window verdict is attached instead and
    max_deviation is the offender's distance from the real axis (zero
    when all real).
    """

    on_circle: bool
    max_deviation: mpf
    route: str
    roots: tuple = ()
    window_verdict: RealityVerdict = None


def _polynomial_eligible(system: SpinSystem) -> bool:
    return system.site_measure.density is None and all(
        w == 1 for w in system.field_weights
    )


def build_partition_polynomial(
    system: SpinSystem, ctx: PrecisionContext = None
) -> PartitionPolynomial:
    """Exact enumeration of the 2^n configurations.

    Configurations are walked in Gray-code order with the pair energy
    updated incrementally; each configuration with first spin +1 is
    accounted together with its global flip, which makes the evenness of
    the coefficients bitwise instead of rounding-level.
    """
    if not _polynomial_eligible(system):
        raise DomainError(
            "polynomial route needs the two-point site measure with unit "
            "field weights"
        )
    ctx = ctx or PrecisionContext()
    n = system.n
    with ctx.workdps():
        beta = mpf(system.beta)
        J = [[mpf(v) for v in row] for row in system.couplings]
        weights = {m: mpf(0) for m in range(-n, n + 1, 2)}

        # spins s[0] fixed at +1; Gray-walk the remaining n-1
        s = [1] * n
        # pair energy sum_{i<j} J_ij s_i s_j
        energy = mpmath.fsum(J[i][j] for i in range(n) for j in range(i + 1, n))
        total = n
        w = mpmath.exp(2 * beta * energy)
        weights[total] += w
        weights[-total] += w
        for g in range(1, 1 << (n - 1)):
            k = (g & -g).bit_length()  # flipped site; site 0 never flips
            delta = mpmath.fsum(J[k][j] * s[j] for j in range(n) if j != k)
            energy -= 2 * s[k] * delta
            s[k] = -s[k]
            total += 2 * s[k]
            w = mpmath.exp(2 * beta * energy)
            weights[total] += w
            weights[-total] += w

        z_norm = mpmath.fsum(weights.values())
        ms = tuple(sorted(weights))
        coeffs = tuple(weights[m] / z_norm for m in ms)
        return PartitionPolynomial(n=n, ms=ms, coefficients=coeffs)


def _decoupled(system: SpinSystem) -> bool:
    return system.beta == 0 or all(
        v == 0 for row in system.couplings for v in row
    )


def _circle_roots(poly: PartitionPolynomial, ctx: PrecisionContext):
    """All roots of y^n F(y) with their worst distance from |y| = 1."""
    coeffs_desc = list(reversed(poly.y_polynomial()))
    degree = len(coeffs_desc) - 1
    last_err = None
    for extra in (60, 200):
        try:
            roots = mpmath.polyroots(
                coeffs_desc, maxsteps=100 + 20 * degree, extraprec=extra
            )
            break
        except mpmath.libmp.NoConvergence as e:
            last_err = e
    else:
        raise DomainError("root finder did not converge: %s" % last_err)
    dev = max(abs(abs(r) - 1) for r in roots)
    return tuple(roots), dev


def verify_leeyang(
    system: SpinSystem,
    ctx: PrecisionContext = None,
    tol=None,
    window: Rectangle = None,
) -> CircleVerdict:
    """Check that every zero of the field transform sits where it must.

    Two-point sites with unit weights: roots of the degree-2n polynomial
    in y = e^{iz}, verdict true when max ||root| - 1| <= tol (default
    1e-10).  A fully decoupled system factors as (1 + y^2)^n / 2^n, so
    its roots are +-i exactly and root refinement is skipped.  Quartic
    and sextic single-site measures: transform reality on a window via
    the winding machinery (default window [-10, 10] x [-2, 2]).
    """
    ctx = ctx or PrecisionContext()
    site = system.site_measure
    with ctx.workdps():
        if site.density is None:
            tol = mpf("1e-10") if tol is None else mpf(tol)
            if _decoupled(system):
                roots = (mpmath.mpc(0, 1),) * system.n + (
                    mpmath.mpc(0, -1),
                ) * system.n
                return CircleVerdict(
                    on_circle=True, max_deviation=mpf(0), route="closed-form",
                    roots=roots,
                )
            poly = build_partition_polynomial(system, ctx)
            roots, dev = _circle_roots(poly, ctx)
            return CircleVerdict(
                on_circle=bool(dev <= tol), max_deviation=dev,
                route="polynomial", roots=roots,
            )
        if system.n != 1:
            raise DomainError(
                "continuum site measures are checked one site at a time"
            )
        window = window or Rectangle.make(-10, 10, -2, 2)
        verdict = verify_all_real(site.density, 0, window, ctx)
        if verdict.all_real:
            dev = mpf(0)
        else:
            dev = abs(mpmath.im(verdict.worst_offender))
        return CircleVerdict(
            on_circle=verdict.all_real, max_deviation=dev,
            route="quadrature", window_verdict=verdict,
        )


def search_sextic_violation(
    a_grid, b_grid, c_grid, ctx: PrecisionContext = None, window: Rectangle = None
):
    """Best-effort scan for a sextic site measure with a non-real zero.

    Returns the list of (a, b, c, verdict) tuples where the window check
    failed; an empty list is not evidence of absence.
    """
    ctx = ctx or PrecisionContext()
    found = []
    for a in a_grid:
        for b in b_grid:
            for c in c_grid:
                system = SpinSystem.make(
                    [[0.0]], beta=1, site_measure=phi6(a, b, c)
                )
                verdict = verify_leeyang(system, ctx, window=window)
                if not verdict.on_circle:
                    found.append((a, b, c, verdict))
    return found
