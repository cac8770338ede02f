"""Nine worked classification cases plus the product-side consistency checks.

The classification sorts an even measure by two sets: the entireness range
of the Gaussian-multiplied transform (its tail set) and the subset of
multipliers where every zero of the transform is real.  Each case below
builds a concrete measure realizing one admissible combination, or records
why a combination cannot occur, and re-verifies the defining behavior
numerically.  The module also carries the inductive sparse-atom
construction whose rescaled limits leave the real-zero class, and a
truncated Hadamard-product check (Gaussian factor times zero factors)
against the second moment.
"""

from dataclasses import dataclass

import mpmath
from mpmath import mp, mpc, mpf

from .estimator import bisect_lambda, scan_lambda
from .measures import (
    EvenMeasure,
    TailSet,
    convolve_gaussian,
    eval_H,
    eval_H_parts,
    named_density,
    symmetric_atoms,
    tail_set,
    transform_function,
)
from .numerics import eval_H_density
from .precision import DomainError, EntirenessError, PrecisionContext
from .zeros import (
    Rectangle,
    as_analytic,
    locate_real_zeros,
    locate_zeros,
    verify_all_real,
)

__all__ = [
    "CASE_IDS",
    "CaseCheck",
    "CaseReport",
    "Case3Construction",
    "ProductRep",
    "ProductRepReport",
    "construct_case3",
    "case3_bucket_weights",
    "product_rep_check",
    "run_case",
    "run_all_cases",
]


# ---------------------------------------------------------------------------
# report containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseCheck:
    name: str
    passed: bool
    details: str


@dataclass(frozen=True)
class CaseReport:
    """Outcome of one classification case.

    measure is the representative measure (None for the impossibility
    case, which constructs nothing); claimed_tail and claimed_P state the
    combination the case realizes.  Failures are recorded in checks, never
    raised, so a casebook sweep always completes.
    """

    case_id: int
    measure: EvenMeasure
    claimed_tail: TailSet
    claimed_P: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "claimed_tail": str(self.claimed_tail) if self.claimed_tail else None,
            "claimed_P": self.claimed_P,
            "measure_kind": self._measure_label(),
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "details": c.details}
                for c in self.checks
            ],
        }

    def _measure_label(self):
        if self.measure is None:
            return None
        if self.measure.kind == "NamedDensity":
            return self.measure.density_kind
        return self.measure.kind


def _check(name, passed, details) -> CaseCheck:
    return CaseCheck(name=name, passed=bool(passed), details=details)


def _n(x, digits=10):
    return mpmath.nstr(x, digits)


# ---------------------------------------------------------------------------
# the inductive sparse-atom construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Case3Construction:
    """Sparse symmetric atoms d_k = e^{k^2} with super-fast decaying masses.

    At stage n the multiplier b_n rebalances the measure so that the atom
    pair at d_{n+1} carries exactly the mass of everything below it; after
    rescaling positions by d_{n+1} the measure then concentrates half its
    mass at the origin and a quarter at each of +-1.  That three-atom limit
    has a nonreal transform zero for every multiplier below a positive
    threshold, and b_n grows without bound, which is what rules out any
    multiplier being in the real-zero set of the full measure.

    log_weights holds log a_k (a_1 = 1); b holds b_1 .. b_{n_max-1};
    equal_mass_residuals holds the log-domain defect of the rebalancing
    identity at each stage.  All members are exact mpf snapshots of a
    deterministic computation at working_digits digits, so two runs with
    the same inputs agree bit for bit.
    """

    n_max: int
    atoms: tuple  # of (d_k, a_k)
    log_weights: tuple
    b: tuple
    equal_mass_residuals: tuple
    working_digits: int


def _log_sum_exp(terms):
    m = max(terms)
    return m + mpmath.log(mpmath.fsum(mpmath.exp(t - m) for t in terms))


def _case3_digits(n_max: int, ctx: PrecisionContext) -> int:
    # The rebalancing identity is checked at magnitude b * d_{n_max}^2,
    # about 2 n_max^2 / ln 10 digits above the decimal point; keep enough
    # working digits to certify a 1e-20 residual on top of that.
    scale_digits = int(2 * n_max * n_max * mpf("0.4343")) + 1
    return max(ctx.working_digits, scale_digits + 60)


def construct_case3(n_max: int, ctx: PrecisionContext = None) -> Case3Construction:
    """Build the first n_max atom pairs and the stage multipliers b_n.

    Stage n picks the largest next mass a_{n+1} subject to three upper
    bounds (the two mass-domination bounds and the requirement that the
    rebalancing multiplier reach at least n+1), then solves the
    rebalancing identity for b_n.  Both solves are monotone bisections on
    log-domain quantities; no raw exponential of a stage magnitude is ever
    formed outside a log-sum-exp.
    """
    ctx = ctx or PrecisionContext()
    if not 1 <= n_max <= 8:
        raise DomainError("n_max must lie in 1..8, got %r" % (n_max,))
    digits = _case3_digits(n_max, ctx)
    with mpmath.workdps(digits):
        D = [mpmath.exp(2 * k * k) for k in range(1, n_max + 1)]
        log_w = [mpf(0)]
        b_list = []
        residuals = []

        def lse_at(n, b):
            # log of the total unrescaled mass below stage n at multiplier b
            return _log_sum_exp([log_w[k] + b * D[k] for k in range(n)])

        def G(n, b):
            # log a solving the rebalancing identity at multiplier b;
            # strictly decreasing in b because D[n] dominates every D[k<n]
            return lse_at(n, b) - b * D[n]

        outer_tol = mpf(10) ** (-20)
        for n in range(1, n_max):
            theta = mpf(n + 1)
            beta_req = theta if n == 1 else max(theta, b_list[-1])
            bound23 = G(n, beta_req)
            if n >= 2:
                bound1 = (
                    log_w[n - 1]
                    + b_list[-1] * (D[n - 1] - D[n])
                    - mpmath.log(theta)
                )
            else:
                bound1 = None

            def feasible(la):
                if bound1 is not None and la > bound1:
                    return False
                return la <= bound23

            # bracket by geometric expansion below the previous mass, then
            # bisect; the feasible endpoint is kept so every bound holds
            hi = log_w[n - 1]
            step = mpf(1)
            lo = hi - step
            guard = 0
            while not feasible(lo):
                hi = lo
                step *= 2
                lo = hi - step
                guard += 1
                if guard > 400:
                    raise DomainError(
                        "no feasible next mass at stage %d; bounds %s / %s"
                        % (n, _n(bound1) if bound1 is not None else "-", _n(bound23))
                    )
            while hi - lo > outer_tol:
                mid = (lo + hi) / 2
                if feasible(mid):
                    lo = mid
                else:
                    hi = mid
            la_next = lo

            # solve the rebalancing identity G(n, b) = la_next for b; keep
            # the upper bracket endpoint so b_n never undershoots the
            # requested floor by a rounding hair
            b_lo = mpf(0)
            b_hi = beta_req + 4
            guard = 0
            while G(n, b_hi) > la_next:
                b_hi *= 2
                guard += 1
                if guard > 200:
                    raise DomainError("rebalancing multiplier bracket ran away")
            inner_tol = mpf(10) ** (-(digits - 10))
            while b_hi - b_lo > inner_tol * max(mpf(1), b_hi):
                mid = (b_lo + b_hi) / 2
                if G(n, mid) >= la_next:
                    b_lo = mid
                else:
                    b_hi = mid
            b_n = b_hi

            log_w.append(la_next)
            b_list.append(b_n)
            residuals.append(abs(la_next + b_n * D[n] - lse_at(n, b_n)))

        atoms = tuple(
            (mpmath.exp(mpf(k * k)), mpmath.exp(log_w[k - 1]))
            for k in range(1, n_max + 1)
        )
        return Case3Construction(
            n_max=n_max,
            atoms=atoms,
            log_weights=tuple(log_w),
            b=tuple(b_list),
            equal_mass_residuals=tuple(residuals),
            working_digits=digits,
        )


def case3_bucket_weights(cons: Case3Construction, n: int):
    """Rescaled-measure bucket masses (center, +1, -1) at stage n.

    Applies the stage multiplier b_n, rescales positions by d_{n+1}, and
    sums normalized mass near u = 0 and at u = +-1.  Atoms beyond stage
    n+1 land far outside both buckets and only enter the normalization.
    """
    if not 1 <= n <= cons.n_max - 1:
        raise DomainError("stage n must lie in 1..n_max-1")
    with mpmath.workdps(cons.working_digits):
        D = [mpmath.exp(2 * k * k) for k in range(1, cons.n_max + 1)]
        b = cons.b[n - 1]
        side = [cons.log_weights[k] + b * D[k] for k in range(cons.n_max)]
        log2 = mpmath.log(mpf(2))
        center = log2 + _log_sum_exp(side[:n])
        plus = side[n]
        total = log2 + _log_sum_exp(side)
        w0 = mpmath.exp(center - total)
        wp = mpmath.exp(plus - total)
        return w0, wp, wp


# ---------------------------------------------------------------------------
# truncated product representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductRep:
    """Gaussian-times-zeros factorization data: H(z)/H(0) ~ e^{-B z^2}
    prod_k (1 - z^2 / y_k^2) over the first truncation_count positive
    zeros.  Genuine members of the real-zero class have B >= 0; the fitted
    B reported here is a measurement and may carry noise of the fit scale.
    """

    B: mpf
    y_k: tuple
    truncation_count: int


@dataclass(frozen=True)
class ProductRepReport:
    rep: ProductRep
    second_moment: mpf  # quadrature/closed-form E[t^2] / E[1]
    zero_sum: mpf  # sum of 1/y_k^2 over the truncation
    residual: mpf  # |second_moment - 2 (B + zero_sum)|
    tail_allowance: mpf
    fit_height: mpf
    window_verified: bool


def product_rep_check(
    measure: EvenMeasure,
    window: Rectangle,
    K_trunc: int,
    ctx: PrecisionContext = None,
    zeros=None,
    fit_height=2,
) -> ProductRepReport:
    """Fit the Gaussian factor and test the second-moment identity.

    The transform at multiplier zero is factored as e^{-B z^2} times the
    first K_trunc positive-zero factors.  B comes from matching log H(i y)
    at a moderate height y, where every factor is positive; the omitted
    zero tail is then absorbed into B, so the second-moment identity
    E[t^2]/E[1] = 2 (B + sum 1/y_k^2) holds up to a small allowance of
    order (y / y_K)^2 times the absorbed tail.  Pass zeros= to supply the
    positive zeros directly (for example when they are known in closed
    form); the all-real window verification is then the caller's
    certification and is not repeated here.
    """
    ctx = ctx or PrecisionContext()
    with ctx.workdps(5):
        y_star = mpf(fit_height)
        if y_star <= 0:
            raise DomainError("fit height must be positive")
        if K_trunc < 0:
            raise DomainError("truncation count must be non-negative")

        window_verified = False
        if zeros is None:
            verdict = verify_all_real(
                measure, 0, window, ctx, locate_offenders=False
            )
            if not verdict.all_real:
                raise DomainError(
                    "transform has a nonreal zero in the window; "
                    "the product factorization does not apply"
                )
            window_verified = True
            eps = mpf(10) ** (-8)
            located = locate_real_zeros(
                transform_function(measure, 0, ctx),
                (eps, window.re_max),
                ctx,
            )
            ys = []
            for z in located:
                for _ in range(z.multiplicity):
                    ys.append(mpmath.re(z.location))
        else:
            ys = [mpf(y) for y in zeros]
            for i, y in enumerate(ys):
                if y <= 0:
                    raise DomainError("supplied zeros must be positive")
                if i and ys[i - 1] >= y:
                    raise DomainError("supplied zeros must be ascending")
        ys = ys[:K_trunc]
        K = len(ys)

        at0 = eval_H_parts(measure, 0, 0, ctx, ("value", "moment2"))
        h0 = mpmath.re(at0["value"].value)
        if h0 <= 0:
            raise DomainError("transform must be positive at the origin")
        m2 = mpmath.re(at0["moment2"].value) / h0

        hy = eval_H(measure, 0, mpc(0, y_star), ctx).value
        if abs(hy) <= mpf(10) ** (-ctx.tol_digits):
            raise DomainError("fit point sits on a zero; move fit_height")
        log_ratio = mpmath.log(abs(hy)) - mpmath.log(h0)
        log_factors = mpmath.fsum(
            mpmath.log(1 + y_star * y_star / (y * y)) for y in ys
        )
        B = (log_ratio - log_factors) / (y_star * y_star)

        zero_sum = mpmath.fsum(1 / (y * y) for y in ys)
        residual = abs(m2 - 2 * (B + zero_sum))
        if K >= 2:
            gap = ys[-1] - ys[-2]
        elif K == 1:
            gap = ys[0]
        else:
            gap = None
        if gap is None or gap <= 0:
            allowance = mpf(0)
        else:
            y_last = ys[-1]
            allowance = 4 * y_star * y_star / (gap * y_last * y_last * y_last)

        return ProductRepReport(
            rep=ProductRep(B=B, y_k=tuple(ys), truncation_count=K),
            second_moment=m2,
            zero_sum=zero_sum,
            residual=residual,
            tail_allowance=allowance,
            fit_height=y_star,
            window_verified=window_verified,
        )


# ---------------------------------------------------------------------------
# the nine cases
# ---------------------------------------------------------------------------


def _scan_detail(results):
    return " ".join(
        "%s:%s" % (
            _n(r.lam, 6),
            "not-entire" if not r.entire else str(bool(r.all_real)).lower(),
        )
        for r in results
    )


def _case_1(ctx: PrecisionContext) -> CaseReport:
    # entire for every multiplier, and every multiplier keeps all zeros
    # real: quartic-dominated density with a finite zero-product factor,
    # and the plain two-atom measure
    density = named_density(
        "DBNClass", ctx, K=1, m=1, alpha=1, beta=0, a_list=(1,)
    )
    atoms = symmetric_atoms([(1, 1)], ctx)
    window = Rectangle.make(-6, 6, "-1.5", "1.5")
    grid = (-5, -1, 0, 1, 5)

    checks = []
    res = scan_lambda(density, grid, window, ctx)
    ok = all(r.entire and r.all_real for r in res)
    checks.append(
        _check("density_scan_all_real", ok, _scan_detail(res))
    )
    res2 = scan_lambda(atoms, grid, window, ctx)
    ok2 = all(r.entire and r.all_real for r in res2)
    checks.append(
        _check("atom_scan_all_real", ok2, _scan_detail(res2))
    )
    return CaseReport(
        case_id=1,
        measure=density,
        claimed_tail=tail_set(density),
        claimed_P="(-inf, inf)",
        checks=tuple(checks),
    )


def _case_2(ctx: PrecisionContext) -> CaseReport:
    # center atom twice the pair mass: the transform w0 + w1 e^b cos z has
    # real zeros exactly when e^{-b} w0 / w1 <= 1, so the real-zero set is
    # [log(w0/w1), inf) and the threshold is log 2
    with ctx.workdps():
        w0 = mpf(2) / 3
        w1 = mpf(1) / 3
    measure = symmetric_atoms([(0, w0), (1, w1)], ctx)
    window = Rectangle.make(-8, 8, -2, 2)
    with ctx.workdps():
        tol = mpf(10) ** (-6)
        exact = mpmath.log(w0 / w1)
    est = bisect_lambda(measure, 0, 1, window, tol, ctx)

    checks = [
        _check(
            "bisection_near_log2",
            abs(est - mpmath.log(2)) <= tol,
            "estimate %s vs log 2 = %s" % (_n(est, 12), _n(mpmath.log(2), 12)),
        ),
        _check(
            "closed_form_root_criterion",
            abs(est - exact) <= tol,
            "cos z = -(w0/w1) e^{-b} is solvable on the axis iff "
            "b >= log(w0/w1) = %s; bisection deviates by %s"
            % (_n(exact, 12), _n(abs(est - exact), 3)),
        ),
    ]
    return CaseReport(
        case_id=2,
        measure=measure,
        claimed_tail=tail_set(measure),
        claimed_P="[log 2, inf)",
        checks=tuple(checks),
    )


def _case_3(ctx: PrecisionContext) -> CaseReport:
    n_max = 7
    cons = construct_case3(n_max, ctx)
    checks = []

    floor_ok = all(
        cons.b[n - 1] >= n + 1 for n in range(1, n_max)
    )
    checks.append(
        _check(
            "multiplier_reaches_stage_floor",
            floor_ok,
            "b_n - (n+1): %s"
            % " ".join(_n(cons.b[n - 1] - (n + 1), 3) for n in range(1, n_max)),
        )
    )
    worst = max(cons.equal_mass_residuals)
    checks.append(
        _check(
            "equal_mass_identity",
            worst < mpf(10) ** (-20),
            "worst log-domain residual %s" % _n(worst, 3),
        )
    )
    w0, wp, wm = case3_bucket_weights(cons, 6)
    with mpmath.workdps(cons.working_digits):
        dev = max(abs(wp - mpf(1) / 4), abs(wm - mpf(1) / 4))
    checks.append(
        _check(
            "rescaled_bucket_weights",
            dev < mpf("1e-3"),
            "stage 6 buckets (%s, %s, %s), worst |w - 1/4| = %s"
            % (_n(w0, 8), _n(wp, 8), _n(wm, 8), _n(dev, 3)),
        )
    )
    again = construct_case3(n_max, ctx)
    same = again.b == cons.b and again.log_weights == cons.log_weights
    checks.append(
        _check(
            "deterministic_rerun",
            same,
            "stage multipliers and log-weights identical across runs: %s" % same,
        )
    )

    pairs = [(d, 2 * a) for d, a in cons.atoms]
    measure = symmetric_atoms(pairs, ctx)
    return CaseReport(
        case_id=3,
        measure=measure,
        claimed_tail=tail_set(measure),
        claimed_P="empty",
        checks=tuple(checks),
    )


def _case_4(ctx: PrecisionContext) -> CaseReport:
    measure = named_density("Gaussian", ctx, b0=1)
    window = Rectangle.make(-6, 6, -2, 2)
    res = scan_lambda(measure, (-1, "0.9", 1), window, ctx)
    below = [r for r in res if r.lam < 1]
    at = [r for r in res if r.lam == 1]
    checks = [
        _check(
            "real_strictly_below_b0",
            all(r.entire and r.all_real for r in below),
            _scan_detail(below),
        ),
        _check(
            "not_entire_at_b0",
            len(at) == 1 and not at[0].entire,
            _scan_detail(at),
        ),
    ]
    try:
        eval_H(measure, 1, 0, ctx)
        checks.append(
            _check("boundary_evaluation_refused", False, "no error raised")
        )
    except EntirenessError as e:
        checks.append(
            _check("boundary_evaluation_refused", True, str(e))
        )
    return CaseReport(
        case_id=4,
        measure=measure,
        claimed_tail=tail_set(measure),
        claimed_P="(-inf, b0)",
        checks=tuple(checks),
    )


def _case_5(ctx: PrecisionContext) -> CaseReport:
    window = Rectangle.make(-8, 8, -2, 2)
    checks = []
    rep_measure = None
    for b0 in (5, 10, 20):
        with ctx.workdps():
            w0 = mpf(3) / 5
            w1 = mpf(2) / 5
            tol = mpf(10) ** (-5)
            closed = b0 - mpf(b0) ** 2 / (b0 + mpmath.log(mpf(3) / 2))
        measure = convolve_gaussian(symmetric_atoms([(0, w0), (1, w1)], ctx), b0, ctx)
        if b0 == 10:
            rep_measure = measure
        est = bisect_lambda(measure, 0, mpf("0.99") * b0, window, tol, ctx)
        checks.append(
            _check(
                "bisection_matches_closed_form_b%d" % b0,
                abs(est - closed) <= tol,
                "estimate %s vs closed form %s" % (_n(est, 10), _n(closed, 10)),
            )
        )
    return CaseReport(
        case_id=5,
        measure=rep_measure,
        claimed_tail=tail_set(rep_measure),
        claimed_P="[Lambda0, b0)",
        checks=tuple(checks),
    )


def _case_6(ctx: PrecisionContext) -> CaseReport:
    # Gaussian times (1 + x): the transform is C (1 + i z / (2 alpha))
    # e^{-z^2 / 4 alpha} with alpha = 1 - b, so 2 alpha i is a zero for
    # every admissible multiplier and the real-zero set is empty
    measure = named_density("Case6", ctx)
    window = Rectangle.make(-4, 4, -3, 3)
    checks = []
    for b, label in ((mpf(0), "b0"), (mpf("0.5"), "b0p5")):
        v = verify_all_real(measure, b, window, ctx)
        with ctx.workdps():
            target = mpc(0, 2 * (1 - b))
        ok = (
            not v.all_real
            and v.worst_offender is not None
            and abs(v.worst_offender - target) <= mpf(10) ** (-8)
        )
        checks.append(
            _check(
                "offender_at_two_alpha_i_%s" % label,
                ok,
                "offender %s vs 2(1-b)i = %s"
                % (
                    _n(v.worst_offender, 10) if v.worst_offender is not None else "-",
                    _n(target, 10),
                ),
            )
        )
    return CaseReport(
        case_id=6,
        measure=measure,
        claimed_tail=tail_set(measure),
        claimed_P="empty",
        checks=tuple(checks),
    )


def _case_7(ctx: PrecisionContext) -> CaseReport:
    # Impossibility: with entireness range (-inf, b0] the real-zero set
    # can be neither (-inf, b0] nor a closed interval ending at b0.  A
    # weak-convergence argument promotes membership at multipliers
    # approaching b0 to membership at b0, and membership at b0 forces
    # integrability beyond b0, contradicting the tail.  Nothing is
    # constructed; the adversarial companion (a closed-endpoint measure
    # must fail verification below the endpoint) runs with case 8.
    return CaseReport(
        case_id=7,
        measure=None,
        claimed_tail=None,
        claimed_P="neither (-inf, b0] nor [Lambda0, b0] can occur",
        checks=(),
    )


def _case_8(ctx: PrecisionContext) -> CaseReport:
    # integer-atom measure whose transform is cos z (1 + cos z)
    # e^{cos z - 1} / 2: every zero is real at multiplier 0, the
    # entireness range is (-inf, 0], and any negative multiplier splits
    # the double zeros at +-pi into conjugate pairs
    measure = named_density("Case8", ctx)
    checks = []

    # zeros of the exponential-variable transform H(i w): the real zeros
    # of H reappear on the imaginary w-axis, at +-i pi/2 and +-i 3pi/2
    # simple and +-i pi double
    H = transform_function(measure, 0, ctx)
    fn = as_analytic(
        lambda w: H(mpc(0, 1) * w), lambda w: mpc(0, 1) * H.derivative(mpc(0, 1) * w)
    )
    with ctx.workdps():
        pi = +mp.pi
        targets = [
            (pi / 2, 1),
            (pi, 2),
            (3 * pi / 2, 1),
        ]
        tol8 = mpf(10) ** (-8)
    zs = locate_zeros(fn, Rectangle.make(-1, 1, -5, 5), ctx)
    matched = []
    unclaimed = list(zs.zeros)
    for height, mult in targets:
        for sign in (1, -1):
            want = mpc(0, sign * height)
            hit = None
            for z in unclaimed:
                if abs(z.location - want) <= tol8 and z.multiplicity == mult:
                    hit = z
                    break
            if hit is not None:
                unclaimed.remove(hit)
            matched.append((want, mult, hit))
    ok = zs.count == 8 and all(m[2] is not None for m in matched) and not unclaimed
    checks.append(
        _check(
            "rotated_variable_axis_zeros",
            ok,
            "count %d; " % zs.count
            + "; ".join(
                "%s (x%d) -> %s"
                % (
                    _n(want, 8),
                    mult,
                    _n(hit.location, 10) if hit is not None else "missed",
                )
                for want, mult, hit in matched
            ),
        )
    )

    window = Rectangle.make(-8, 8, -2, 2)
    v0 = verify_all_real(measure, 0, window, ctx)
    checks.append(
        _check(
            "all_real_at_boundary",
            v0.all_real,
            "window %s, margin %s" % ("[-8,8]x[-2,2]", _n(v0.margin, 6)),
        )
    )

    vneg = verify_all_real(measure, mpf("-0.25"), Rectangle.make("1.5", "4.8", -2, 2), ctx)
    off = vneg.worst_offender
    ok_neg = (
        not vneg.all_real
        and off is not None
        and abs(mpmath.im(off)) > mpf("0.3")
    )
    checks.append(
        _check(
            "nonreal_below_boundary",
            ok_neg,
            "multiplier -0.25 splits the double zero near pi; offender %s"
            % (_n(off, 10) if off is not None else "-"),
        )
    )

    try:
        eval_H(measure, mpf("0.25"), 0, ctx)
        checks.append(
            _check("refused_above_boundary", False, "no error raised")
        )
    except EntirenessError as e:
        checks.append(_check("refused_above_boundary", True, str(e)))

    return CaseReport(
        case_id=8,
        measure=measure,
        claimed_tail=tail_set(measure),
        claimed_P="{0}",
        checks=tuple(checks),
    )


def _case_9(ctx: PrecisionContext) -> CaseReport:
    # densities with a soft non-Gaussian factor (absolute-exponential or
    # polynomial decay) times a Gaussian: integrable at the Gaussian rate
    # itself, but no multiplier keeps all zeros real; nonreal zeros of the
    # multiplier -0.5 transform were pinned down by a winding search
    absexp = named_density("AbsExpGaussian", ctx, a=1, lam=1)
    poly = named_density("PolyDecayGaussian", ctx, theta=1, lam=1)
    checks = []

    for name, measure, window in (
        ("absolute_exponential", absexp, Rectangle.make("4.3", "6.3", "-4.4", "4.4")),
        ("polynomial_decay", poly, Rectangle.make(5, 7, "-5.5", "5.5")),
    ):
        v = verify_all_real(measure, mpf("-0.5"), window, ctx)
        off = v.worst_offender
        ok = not v.all_real and off is not None and abs(mpmath.im(off)) > 1
        checks.append(
            _check(
                "%s_offender_nonreal" % name,
                ok,
                "multiplier -0.5 offender %s" % (_n(off, 10) if off is not None else "-"),
            )
        )

    # dual route for the absolute-exponential transform at multiplier 0: its
    # erfc closed form against the adaptive quadrature of the density
    with ctx.workdps():
        worst = max(abs(eval_H(absexp, 0, z, ctx).value - eval_H_density(absexp, 0, z, ctx).value)
                    for z in (mpf(0), mpf("0.7"), mpc(1, "0.5")))
        # quadrature only certifies the context tolerance; the 1e-12 floor
        # is what a routinely configured context achieves
        tol = max(mpf(10) ** (-12), 10 * ctx.target_abs_tol)
    checks.append(
        _check(
            "absolute_exponential_closed_form",
            worst <= tol,
            "worst deviation from adaptive quadrature %s (allowed %s)"
            % (_n(worst, 3), _n(tol, 3)),
        )
    )

    return CaseReport(
        case_id=9,
        measure=absexp,
        claimed_tail=tail_set(absexp),
        claimed_P="empty",
        checks=tuple(checks),
    )


_CASES = {
    1: _case_1,
    2: _case_2,
    3: _case_3,
    4: _case_4,
    5: _case_5,
    6: _case_6,
    7: _case_7,
    8: _case_8,
    9: _case_9,
}

#: the case numbers, in order: what run_case and the CLI's --case accept
CASE_IDS = tuple(sorted(_CASES))


def run_case(case_id: int, ctx: PrecisionContext = None) -> CaseReport:
    """Build one case's measure and run its defining checks.

    Check failures are recorded in the report, not raised; builder errors
    (infeasible construction, broken bracket) do propagate, since they
    mean the case could not be set up at all.
    """
    if case_id not in _CASES:
        raise DomainError("case_id must be one of %s, got %r" % (CASE_IDS, case_id))
    ctx = ctx or PrecisionContext()
    return _CASES[case_id](ctx)


def run_all_cases(ctx: PrecisionContext = None):
    """All nine reports, in case order."""
    return tuple(run_case(i, ctx) for i in CASE_IDS)
