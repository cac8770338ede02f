"""Oracle and invariant tests for the series, special-function, and
quadrature layer.

Frozen reference digits were produced by routes independent of the code
under test: a direct 100-term summation of the theta-derivative series at
200 digits, mpmath's zeta/gamma for the completed-zeta anchors (evaluated
far from the eta-route cancellation points, where mpmath is trustworthy),
and a 200-digit run of the alternating-series route for the one anchor that
sits exactly on an eta cancellation point.
"""

import cmath
import math

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpc, mpf

from dbnlab import (
    PrecisionContext,
    PrecisionLossError,
    QuadratureError,
    RangeError,
    TailBoundError,
    eval_H_density,
    eval_phi,
    eval_theta,
    eval_xi_reference,
    integrate_adaptive,
    named_density,
)
from dbnlab.measures import partial_gaussian_mass
from dbnlab.numerics import _gl_nodes, _gl_nodes_float, _zeta_eta, eval_H_density_parts

CTX = PrecisionContext()


def independent_phi_sum(u, terms=100, dps=200):
    """Direct term loop of the theta-derivative series, written separately
    from the production code on purpose."""
    with mp.workdps(dps):
        u = abs(mpf(u))
        total = mpf(0)
        x = mpmath.exp(2 * u)
        for n in range(1, terms + 1):
            total += (
                4 * mp.pi**2 * n**4 * mpmath.exp(mpf(9) * u / 2)
                - 6 * mp.pi * n**2 * mpmath.exp(mpf(5) * u / 2)
            ) * mpmath.exp(-mp.pi * n * n * x)
        return total


# kept as strings: mpf() literal parsing respects the precision that is
# current at conversion time, so conversion happens inside workdps blocks
PHI_FROZEN = {
    "0": "0.8933938009342468881739693341094182264408",
    "0.5": "0.06037745178434865506210101347122115973214",
    "2": "1.020400267804889825271424595536261244293e-69",
}

XI_FROZEN = {
    "0": "0.4971207781883141099127737396853977198073",
    "1": "0.485757429670983491722797106834618818533",
    "5": "0.2755499973442041922290423380964156239158",
}


class TestPhi:
    def test_matches_independent_sum(self):
        for u in ("0", "0.5", "2"):
            got = eval_phi(mpf(u), CTX)
            want = independent_phi_sum(u)
            assert abs(got - want) < CTX.target_abs_tol

    def test_frozen_values(self):
        with mp.workdps(60):
            for u, want_str in PHI_FROZEN.items():
                want = mpf(want_str)
                got = eval_phi(mpf(u), CTX)
                assert abs(got - want) <= mpf("1e-30") * max(1, abs(want))

    def test_even_in_u(self):
        for u in ("0.3", "1.7", "2.5"):
            assert eval_phi(mpf(u), CTX) == eval_phi(-mpf(u), CTX)

    def test_positive_and_decreasing(self):
        vals = [eval_phi(mpf(u) / 4, CTX) for u in range(0, 13)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_huge_argument_rejected(self):
        with pytest.raises(RangeError):
            eval_phi(mpf("1e7"), CTX)


class TestTheta:
    def test_functional_identity_grid(self):
        # theta(x) = x^{-1/2} theta(1/x) across the spec grid of x values
        with mp.workdps(60):
            for x in (mpf(1) / 4, mpf(1) / 2, mpf(1), mpf(2), mpf(4)):
                lhs = eval_theta(x, CTX)
                rhs = eval_theta(1 / x, CTX) / mpmath.sqrt(x)
                assert abs(lhs - rhs) < CTX.target_abs_tol

    def test_classical_closed_form_at_one(self):
        # theta(1) = pi^{1/4} / Gamma(3/4)
        ctx = PrecisionContext(working_digits=70, target_abs_tol=mpf("1e-50"))
        with mp.workdps(80):
            want = mpmath.power(mp.pi, mpf(1) / 4) / mpmath.gamma(mpf(3) / 4)
            assert abs(eval_theta(mpf(1), ctx) - want) < mpf("1e-45")

    def test_large_x_tends_to_one(self):
        ctx = PrecisionContext(working_digits=80, target_abs_tol=mpf("1e-60"))
        with mp.workdps(90):
            assert eval_theta(mpf(50), ctx) - 1 < mpf("1e-50")

    def test_rejects_nonpositive(self):
        for bad in (0, -1):
            with pytest.raises(RangeError):
                eval_theta(bad, CTX)


class TestXiReference:
    def test_frozen_anchors(self):
        with mp.workdps(60):
            for z, want_str in XI_FROZEN.items():
                got = eval_xi_reference(mpf(z), CTX)
                assert abs(got - mpf(want_str)) < mpf("1e-30")

    def test_exact_half_at_gamma_pole_reflection(self):
        # s = 1/2 + iz hits s = 0 and s = 1 at z = +-i/2; the completed
        # function equals 1/2 there exactly (the zeta pole cancels against
        # the s-1 factor, the reflection keeps Gamma(s/2) finite).
        with mp.workdps(60):
            for im in ("0.5", "-0.5"):
                got = eval_xi_reference(mpc(0, im), CTX)
                assert abs(got - mpf("0.5")) < mpf("1e-30")

    def test_eta_cancellation_point(self):
        # s = 1 + 2 pi i / ln 2 annihilates both the alternating series and
        # its prefactor; the precision bump must absorb the ~20 lost digits.
        with mp.workdps(60):
            z = mpc("9.0647202836543876194", "-0.5")
            want = mpc(
                "0.0619050167477695326434120735861495971036335511",
                "0.0158840202949165118459794584973396483541694353",
            )
            got = eval_xi_reference(z, CTX)
            assert abs(got - want) < mpf("1e-30")

    def test_first_zero_bracketed(self):
        a = eval_xi_reference(mpf("14.0"), CTX)
        b = eval_xi_reference(mpf("14.3"), CTX)
        assert mpmath.sign(a.real) != mpmath.sign(b.real)

    def test_real_even_conjugate_symmetric(self):
        with mp.workdps(60):
            for z in (mpf("0.7"), mpf("3.3"), mpf("13.9")):
                v = eval_xi_reference(z, CTX)
                assert abs(v.imag) < mpf("1e-30")
                assert abs(eval_xi_reference(-z, CTX) - v) < mpf("1e-30")
            zc = mpc("0.3", "0.2")
            v = eval_xi_reference(zc, CTX)
            w = eval_xi_reference(mpmath.conj(zc), CTX)
            assert abs(mpmath.conj(w) - v) < mpf("1e-30")

    def test_far_imaginary_argument_rejected(self):
        with pytest.raises((RangeError, PrecisionLossError)):
            eval_xi_reference(mpf(5000), CTX)

    @settings(max_examples=60, deadline=None)
    @given(re=st.floats(0.5, 1.5), im=st.floats(-40, 40), dps=st.sampled_from([20, 40, 80]))
    @example(re=0.5, im=14.134725141734693, dps=80)  # next to the first zero of zeta
    @example(re=1.0, im=0.0, dps=20)  # the removable point, eta(1) = ln 2
    def test_property_eta_series_matches_mpmath_zeta(self, re, im, dps):
        # an independent route to eta: mpmath's zeta times 1 - 2^{1-s}, at
        # 30 digits more, so that the factor's cancellation near s = 1 costs
        # none of the dps compared.  The error is relative to max(|eta|, 1):
        # on the critical line eta vanishes with zeta, and next to a zero a
        # summation's rounding of some 10^-dps is no longer small beside
        # |eta| (1.8e-15 at the first example)
        s = mpc(re, im)
        with mp.workdps(dps):
            got = _zeta_eta(s, dps)
        with mp.workdps(dps + 30):
            want = mpmath.ln(2) if s == 1 else mpmath.zeta(s) * (1 - mpmath.power(2, 1 - s))
            assert abs(got - want) <= mpf(10) ** (2 - dps) * max(abs(want), 1)


GAUSS = named_density("Gaussian", CTX, b0=1)
PHI_DENSITY = named_density("RiemannPhi", CTX)


class TestHDensity:
    def test_gaussian_normalization(self):
        got = eval_H_density(GAUSS, mpf(0), mpf(0), CTX)
        assert abs(got.value - mpmath.sqrt(mp.pi)) < mpf("1e-12")

    def test_gaussian_proportional_to_exp(self):
        # H(z) e^{z^2/4} must be constant (= sqrt(pi)) for b0 = 1, lam = 0
        with mp.workdps(60):
            for z in (mpf(0), mpf(1), mpf(3), mpc(1, 1)):
                v = eval_H_density(GAUSS, mpf(0), z, CTX).value
                ratio = v * mpmath.exp(z * z / 4)
                assert abs(ratio - mpmath.sqrt(mp.pi)) < mpf("1e-25")

    def test_oracle_agreement_with_completed_zeta(self):
        # the central dual-route check: quadrature of the theta-derivative
        # density against the zeta/Gamma route, at the spec's four points
        with mp.workdps(60):
            for z in (mpf(0), mpf(1), mpf(5), mpc("0.3", "0.2")):
                h = eval_H_density(PHI_DENSITY, mpf(0), z, CTX)
                xi = eval_xi_reference(z, CTX)
                budget = h.abs_error_estimate + mpf("1e-30")
                assert abs(h.value - xi) < budget

    def test_evenness_and_conjugation(self):
        with mp.workdps(60):
            for z in (mpf("1.3"), mpc("0.5", "0.4")):
                h = eval_H_density(PHI_DENSITY, mpf("-0.2"), z, CTX)
                hm = eval_H_density(PHI_DENSITY, mpf("-0.2"), -z, CTX)
                hc = eval_H_density(PHI_DENSITY, mpf("-0.2"), mpmath.conj(z), CTX)
                budget = 2 * (h.abs_error_estimate + hm.abs_error_estimate)
                assert abs(h.value - hm.value) < budget
                assert abs(mpmath.conj(hc.value) - h.value) < budget

    def test_phi_is_weighed_at_working_precision(self):
        # Phi cut at the context tolerance (1e-30) left eval_H_density
        # 2.4e-33 from xi(0), a cut no estimate carried; at working
        # precision it is far inside tol
        for z in (mpf(0), mpf(1), mpc("0.3", "0.2")):
            h = eval_H_density(PHI_DENSITY, mpf(0), z, CTX)
            xi = eval_xi_reference(z, PrecisionContext(90, mpf("1e-80")))
            with mp.workdps(90):
                assert abs(h.value - xi) < mpf("1e-40"), z

    def test_reports_metadata(self):
        h = eval_H_density(PHI_DENSITY, mpf("-0.1"), mpf(2), CTX)
        assert h.n_evals > 0
        assert h.lam == mpf("-0.1")
        assert h.abs_error_estimate < CTX.target_abs_tol

    def test_tail_bound_failure_near_boundary(self):
        # lam within 1e-9 of the Gaussian rate: no admissible truncation
        # point below the cap can push the tail under tolerance
        with pytest.raises(TailBoundError):
            eval_H_density(GAUSS, mpf(1) - mpf("1e-9"), mpf(0), CTX)

    def test_derivative_part_matches_difference_quotient(self):
        with mp.workdps(60):
            z = mpf("1.5")
            h = mpf("1e-8")
            parts = eval_H_density_parts(
                PHI_DENSITY, mpf(0), z, CTX, parts=("value", "deriv", "moment2")
            )
            plus = eval_H_density(PHI_DENSITY, mpf(0), z + h, CTX).value
            minus = eval_H_density(PHI_DENSITY, mpf(0), z - h, CTX).value
            fd = (plus - minus) / (2 * h)
            assert abs(parts["deriv"].value - fd) < mpf("1e-13")
            fd2 = (plus - 2 * parts["value"].value + minus) / (h * h)
            assert abs(parts["moment2"].value + fd2) < mpf("1e-11")


class TestQuadrature:
    def test_polynomial_exact(self):
        with mp.workdps(50):
            vals, err, _ = integrate_adaptive(
                lambda t: (t**7 - 3 * t**2 + 1,), mpf(0), mpf(2), mpf("1e-35")
            )
            want = mpf(2) ** 8 / 8 - 8 + 2
            assert abs(vals[0] - want) < mpf("1e-33")

    def test_oscillatory(self):
        with mp.workdps(50):
            vals, err, n = integrate_adaptive(
                lambda t: (mpmath.cos(7 * t),), mpf(0), 10 * mp.pi, mpf("1e-30")
            )
            want = mpmath.sin(70 * mp.pi) / 7
            assert abs(vals[0] - want) < mpf("1e-28")
            assert err < mpf("1e-28")

    def test_estimate_covers_true_error(self):
        with mp.workdps(50):
            vals, err, _ = integrate_adaptive(
                lambda t: (mpmath.exp(-t * t),), mpf(0), mpf(8), mpf("1e-30")
            )
            want = mpmath.sqrt(mp.pi) / 2 - mpmath.erfc(8) * mpmath.sqrt(mp.pi) / 2
            assert abs(vals[0] - want) <= err + mpf("1e-35")

    def test_unresolvable_raises(self):
        with mp.workdps(30):
            with pytest.raises(QuadratureError):
                integrate_adaptive(
                    lambda t: (mpmath.sqrt(abs(t - mpf(1) / 3)) ** -1,),
                    mpf(0),
                    mpf(1),
                    mpf("1e-25"),
                    max_depth=8,
                )


class TestFloatQuadrature:
    """integrate_adaptive on Python float ends sums in float64, with each
    rule's rounding bound in its panel's estimate."""

    @pytest.mark.parametrize(
        "fn, b, want",
        [
            (lambda t: (math.cos(7 * t),), 10 * math.pi, lambda: mpmath.sin(70 * mp.pi) / 7),
            (
                lambda t: (math.exp(-t * t),),
                8.0,
                lambda: mpmath.sqrt(mp.pi) / 2 * mpmath.erf(8),
            ),
            (lambda t: (cmath.exp(3j * t),), 1.0, lambda: (mpmath.expj(3) - 1) / mpc(0, 3)),
            (lambda t: (1 / (1 + t), t**5), 2.0, lambda: (mpmath.log(3), mpf(64) / 6)),
        ],
    )
    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_closed_forms_within_the_estimate(self, fn, b, want, tol):
        with mp.workdps(30):
            want = want()
            want = want if isinstance(want, tuple) else (want,)
            vals, err, n = integrate_adaptive(fn, 0.0, b, tol, ncomp=len(want))
            assert isinstance(err, float) and err <= tol and n > 0
            for v, w in zip(vals, want):
                assert isinstance(v, complex)
                assert abs(mpc(v) - w) <= err

    def test_a_tolerance_below_float_resolution_raises(self):
        # the mpmath route meets 1e-20 on mpf ends; the float route's
        # rounding bounds alone exceed it on every panel
        with mp.workdps(30):
            vals, _, _ = integrate_adaptive(lambda t: (mpmath.cos(t),), mpf(0), mpf(1), mpf("1e-20"))
            assert abs(vals[0] - mpmath.sin(1)) < mpf("1e-20")
        with pytest.raises(QuadratureError):
            integrate_adaptive(lambda t: (math.cos(t),), 0.0, 1.0, 1e-20)

    def test_a_nan_in_one_component_is_not_accepted(self):
        with pytest.raises(QuadratureError):
            integrate_adaptive(
                lambda t: (1.0, math.nan), 0.0, 1.0, 1e-3, ncomp=2, max_depth=3
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 24, 40])
    def test_float_rules_are_rounded_mpmath_rules(self, n):
        exact = _gl_nodes(n, 120)
        for (x, w), (ex, ew) in zip(_gl_nodes_float(n), exact):
            assert abs(x - float(ex)) <= math.ulp(float(ex))
            assert abs(w - float(ew)) <= math.ulp(float(ew))

    def test_the_mpf_route_is_unchanged(self):
        # frozen from the mpf route before float ends joined it: every
        # value, estimate and count of eval_H_density_parts and
        # partial_gaussian_mass to the last bit
        with CTX.workdps():
            z, lam = mpc("0.3", "0.2"), mpf("-0.1")
        parts = eval_H_density_parts(
            PHI_DENSITY, lam, z, CTX, parts=("value", "deriv", "moment2")
        )
        frozen = {
            "value": (
                (12708177572962019264920166955078624276910981218618882062928997, -204),
                (8946708543667208611953100478248452899079848480409782976783349, -212),
            ),
            "deriv": (
                (5601227876896418380412459497411058459513547547023760560017271, -209),
                (7426935464775082312477025100606400224586653947584735303225953, -210),
            ),
            "moment2": (
                (9299465178851362817649446097464886556694971949978560033268279, -208),
                (2289633836789267018438386051994819512161669106262178664913653, -213),
            ),
        }
        for part, (re, im) in frozen.items():
            te = parts[part]
            assert (te.value.real.man_exp, te.value.imag.man_exp) == (re, im)
            assert te.abs_error_estimate.man_exp == (
                822845541101415374633864600989071051747284127334098160484909,
                -304,
            )
            assert te.n_evals == 1044
        with CTX.workdps():
            mass = partial_gaussian_mass(GAUSS, mpf("0.5"), mpf(3), CTX)
        assert mass.man_exp == (1004280392166376146716972985834101373011273450426203259897327, -198)


class TestPrecisionContext:
    def test_rejects_too_few_digits(self):
        with pytest.raises(ValueError):
            PrecisionContext(working_digits=2)

    def test_rejects_tolerance_below_working_precision(self):
        with pytest.raises(ValueError):
            PrecisionContext(working_digits=10, target_abs_tol=mpf("1e-30"))

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_rejects_a_non_finite_tolerance(self, tol):
        with pytest.raises(ValueError):
            PrecisionContext(working_digits=20, target_abs_tol=mpf(tol))

    def test_tolerance_digits_in_and_below_the_float_range(self):
        cases = ((20, "1e-10", 10), (20, "3e-11", 11), (50, "1e-30", 30), (500, "1e-400", 400))
        for digits, tol, want in cases:
            with mp.workdps(digits):
                ctx = PrecisionContext(working_digits=digits, target_abs_tol=mpf(tol))
            assert ctx.tol_digits == want

    def test_spawn_overrides(self):
        ctx = CTX.spawn(digits=25, tol=mpf("1e-15"))
        assert ctx.working_digits == 25
        assert ctx.tol_digits == 15


@settings(max_examples=20, deadline=None)
@given(
    re=st.floats(-4, 4, allow_nan=False, allow_infinity=False),
    im=st.floats(-2, 2, allow_nan=False, allow_infinity=False),
)
def test_property_gaussian_transform_conjugate_even(re, im):
    """H(-z) = H(z) and H(conj z) = conj H(z) for the Gaussian density."""
    with mp.workdps(60):
        z = mpc(re, im)
        a = eval_H_density(GAUSS, mpf("-0.5"), z, CTX)
        b = eval_H_density(GAUSS, mpf("-0.5"), -z, CTX)
        c = eval_H_density(GAUSS, mpf("-0.5"), mpmath.conj(z), CTX)
        budget = 2 * (a.abs_error_estimate + b.abs_error_estimate) + mpf("1e-28")
        assert abs(a.value - b.value) < budget
        assert abs(mpmath.conj(c.value) - a.value) < budget
