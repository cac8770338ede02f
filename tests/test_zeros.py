"""Winding counts, zero location, and reality verdicts.

Closed-form functions (cosine, polynomials) pin the counting and location
machinery directly; the two-atom cosine measure exercises the double-zero
and near-threshold policies at its known reality threshold log 2; the
Riemann weight supplies nontrivial quadrature-backed targets.
"""

import math
from dataclasses import replace
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from dbnlab import measures, zeros
from dbnlab.numerics import integrate_adaptive
from dbnlab.measures import (
    convolve_gaussian,
    eval_H,
    named_density,
    symmetric_atoms,
    transform_function,
)
from dbnlab.precision import (
    DomainError,
    EntirenessError,
    PrecisionContext,
    QuadratureError,
    ResolutionError,
    WindingError,
)
from dbnlab.zeros import (
    MAX_POWER_SUMS,
    Rectangle,
    ZeroSet,
    _axis_count,
    _polish,
    _symmetric_count,
    as_analytic,
    count_zeros,
    locate_real_zeros,
    locate_zeros,
    verify_all_real,
)


def ctx30():
    return PrecisionContext(working_digits=30, target_abs_tol=mpf("1e-15"))


def ctx_light():
    return PrecisionContext(working_digits=20, target_abs_tol=mpf("1e-10"))


def ctx_cheap():
    return PrecisionContext(working_digits=25, target_abs_tol=mpf("1e-12"))


def cosine_fn():
    return as_analytic(mpmath.cos, lambda z: -mpmath.sin(z))


def two_atom_cosine():
    # H(z; lam) = 2/3 + (1/3) e^lam cos z, reality threshold lam = log 2
    return symmetric_atoms([(mpf(0), mpf(2) / 3), (mpf(1), mpf(1) / 3)])


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "bounds", [("-inf", 1, -1, 1), (0, "inf", -1, 1), (0, 1, "nan", 1), (0, 1, -1, "+inf")]
)
def test_rectangle_refuses_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="finite"):
        Rectangle.make(*bounds)


class TestCountZeros:
    def test_cosine_rectangle(self):
        ctx = ctx30()
        with ctx.workdps(0):
            n = count_zeros(cosine_fn(), Rectangle.make(-2, 2, -1, 1), ctx)
        assert n == 2

    def test_double_zero_counted_with_multiplicity(self):
        ctx = ctx30()
        with ctx.workdps(0):
            f = as_analytic(lambda z: z * z, lambda z: 2 * z)
            n = count_zeros(f, Rectangle.make(-1, 1, -1, 1), ctx)
        assert n == 2

    def test_zero_free_region(self):
        ctx = ctx30()
        with ctx.workdps(0):
            n = count_zeros(
                cosine_fn(), Rectangle.make(-1, 1, mpf("-0.5"), mpf("0.5")), ctx
            )
        assert n == 0

    def test_numerical_derivative_fallback(self):
        ctx = ctx30()
        with ctx.workdps(0):
            f = as_analytic(mpmath.cos)
            n = count_zeros(f, Rectangle.make(-2, 2, -1, 1), ctx)
        assert n == 2

    def test_zero_on_contour_triggers_growth(self):
        # right edge passes through the zero at pi/2; the perturbed
        # rectangle must still deliver an integer verdict
        ctx = ctx30()
        with ctx.workdps(0):
            rect = Rectangle(mpf(0), mp.pi / 2, mpf(-1), mpf(1))
            n = count_zeros(cosine_fn(), rect, ctx)
        assert n == 1

    def test_grown_window_counts_only_the_zeros_of_the_rectangle_given(self):
        # (w0 + w1 cos tz)^2 has double zeros at +-1.268476358; the vertical
        # edges 3e-5 inside them make the sweep dip, and the locator grows
        # the window over all four: the count is that of the rectangle given
        ctx = ctx_light()
        factor = (mpf(0.3157759123534061), mpf(0.993366923969387), mpf(1.4933614581987766))
        fn = _cosine_product([factor, factor])
        with ctx.workdps(5):
            a, b = mpf("1.2684764") - mpf("3e-5"), mpf(1.274749912084583)
            rect = Rectangle(-a, a, -b, b)
        found = locate_zeros(fn, rect, ctx)
        assert found.rect != rect and found.count == 4
        assert count_zeros(fn, rect, ctx) == 0

    def test_zero_within_the_acceptance_distance_of_an_edge_is_refused(self):
        # cos z's zero at pi/2 lies 1e-12 past the right edge: far beyond the
        # edge's rounding, but within the distance 1e-5 inside which the
        # locator's Newton polish accepts a point
        ctx = ctx_light()
        with ctx.workdps():
            rect = Rectangle(mpf(0), mp.pi / 2 - mpf("1e-12"), mpf(-1), mpf(1))
        with pytest.raises(ResolutionError, match="acceptance distance"):
            count_zeros(cosine_fn(), rect, ctx)

    def test_winding_additivity_across_a_split(self):
        ctx = ctx30()
        with ctx.workdps(0):
            fn = cosine_fn()
            whole = count_zeros(fn, Rectangle.make(-2, 6, -1, 1), ctx)
            left = count_zeros(fn, Rectangle.make(-2, 2, -1, 1), ctx)
            right = count_zeros(fn, Rectangle.make(2, 6, -1, 1), ctx)
        assert whole == 3
        assert left + right == whole

    def test_evaluator_failure_is_not_read_as_a_dip(self):
        # an evaluator that cannot certify a value raises QuadratureError
        # itself; that must reach the caller, not grow the window as if a
        # zero hugged the contour
        def cos_or_refuse(z):
            if mpmath.re(z) > 2:
                raise QuadratureError("no certified value at %s" % z)
            return mpmath.cos(z)

        ctx = ctx30()
        with ctx.workdps(0):
            f = as_analytic(cos_or_refuse, lambda z: -mpmath.sin(z))
            with pytest.raises(QuadratureError):
                count_zeros(f, Rectangle.make(-3, 3, -1, 1), ctx)

    def test_negative_winding_is_refused_at_once(self):
        # 1/(z - 0.1) has a pole and no zero in the square: its sweep winds
        # -1 times, which both routes refuse on the first sweep instead of
        # quadrisecting toward the pole
        calls = [0]

        def f(z):
            calls[0] += 1
            return 1 / (z - mpf("0.1"))

        def df(z):
            calls[0] += 1
            return -1 / (z - mpf("0.1")) ** 2

        ctx = ctx_light()
        for route in (count_zeros, locate_zeros):
            calls[0] = 0
            with pytest.raises(WindingError, match="negative winding -1"):
                route(as_analytic(f, df), Rectangle.make(-1, 1, -1, 1), ctx)
            assert calls[0] <= 300

    def test_riemann_weight_window(self):
        ctx = ctx_cheap()
        with ctx.workdps(0):
            fn = transform_function(named_density("RiemannPhi", ctx), mpf(0), ctx)
            n = count_zeros(fn, Rectangle.make(10, 20, -1, 1), ctx)
        assert n == 1


# ---------------------------------------------------------------------------
# location in rectangles
# ---------------------------------------------------------------------------


class TestLocateZeros:
    def test_double_zero_at_origin(self):
        ctx = ctx30()
        with ctx.workdps(0):
            f = as_analytic(lambda z: z * z, lambda z: 2 * z)
            zs = locate_zeros(f, Rectangle.make(-1, 1, -1, 1), ctx)
            assert zs.count == 2
            assert len(zs.zeros) == 1
            assert zs.zeros[0].multiplicity == 2
            assert abs(zs.zeros[0].location) < mpf("1e-12")

    def test_real_pair(self):
        ctx = ctx30()
        with ctx.workdps(0):
            f = as_analytic(lambda z: z * z - 1, lambda z: 2 * z)
            zs = locate_zeros(f, Rectangle.make(-2, 2, -1, 1), ctx)
            locs = sorted(z.location.real for z in zs.zeros)
            assert zs.count == 2
            assert abs(locs[0] + 1) < mpf("1e-12")
            assert abs(locs[1] - 1) < mpf("1e-12")

    def test_conjugate_pair(self):
        ctx = ctx30()
        with ctx.workdps(0):
            f = as_analytic(lambda z: z * z + 1, lambda z: 2 * z)
            zs = locate_zeros(f, Rectangle.make(-1, 1, -2, 2), ctx)
            assert zs.count == 2
            ims = sorted(mpmath.im(z.location) for z in zs.zeros)
            assert abs(ims[0] + 1) < mpf("1e-12")
            assert abs(ims[1] - 1) < mpf("1e-12")
            assert all(abs(mpmath.re(z.location)) < mpf("1e-12") for z in zs.zeros)

    def test_total_multiplicity_matches_count(self):
        ctx = ctx30()
        with ctx.workdps(0):
            fn = transform_function(two_atom_cosine(), mpf("0.5"), ctx)
            zs = locate_zeros(fn, Rectangle.make(0, 7, -2, 2), ctx)
        assert isinstance(zs, ZeroSet)
        assert zs.total_multiplicity() == zs.count


# ---------------------------------------------------------------------------
# real-axis scans
# ---------------------------------------------------------------------------


class TestLocateRealZeros:
    def test_cosine_roots(self):
        ctx = ctx30()
        with ctx.workdps(0):
            roots = locate_real_zeros(
                cosine_fn(), (0, 10), ctx, refine_tol=mpf("1e-20")
            )
            assert len(roots) == 3
            for got, k in zip(roots, (1, 3, 5)):
                assert got.multiplicity == 1
                assert abs(got.location.real - k * mp.pi / 2) < mpf("1e-18")

    def test_empty_interval_rejected(self):
        ctx = ctx30()
        with ctx.workdps(0):
            with pytest.raises(DomainError):
                locate_real_zeros(cosine_fn(), (3, 3), ctx)

    def test_double_zeros_at_reality_threshold(self):
        # at lam = log 2 the transform is (2/3)(1 + cos z): double zeros at
        # odd multiples of pi, no sign change anywhere
        ctx = ctx30()
        with ctx.workdps(0):
            fn = transform_function(two_atom_cosine(), mpmath.log(2), ctx)
            roots = locate_real_zeros(fn, (0, 12), ctx, refine_tol=mpf("1e-12"))
            assert [r.multiplicity for r in roots] == [2, 2]
            assert abs(roots[0].location.real - mp.pi) < mpf("1e-10")
            assert abs(roots[1].location.real - 3 * mp.pi) < mpf("1e-10")

    def test_just_below_threshold_rejects_complex_pair(self):
        # the |H| minimum at pi persists but its nearby zeros sit at
        # +-i sqrt(2 eps): they must not be reported as real
        ctx = ctx30()
        with ctx.workdps(0):
            fn = transform_function(
                two_atom_cosine(), mpmath.log(2) - mpf("1e-6"), ctx
            )
            roots = locate_real_zeros(fn, (0, 12), ctx, refine_tol=mpf("1e-12"))
        assert roots == []

    def test_just_above_threshold_reports_cluster_pair(self):
        ctx = ctx30()
        with ctx.workdps(0):
            fn = transform_function(
                two_atom_cosine(), mpmath.log(2) + mpf("1e-6"), ctx
            )
            roots = locate_real_zeros(
                fn, (mpf("2.5"), mpf("3.8")), ctx, refine_tol=mpf("1e-12")
            )
            assert len(roots) == 2
            assert all(r.cluster for r in roots)
            half_gap = mpmath.sqrt(2 * mpf("1e-6"))
            for r in roots:
                assert abs(abs(r.location.real - mp.pi) - half_gap) < mpf("1e-4")

    def test_unsettled_scan_is_refused(self, monkeypatch):
        # with the budget at the first grid, one crossing count is all the
        # scan has: the zeros of that grid are refused, not returned
        monkeypatch.setattr(zeros, "AXIS_MAX_POINTS", zeros.AXIS_POINTS)
        ctx = ctx30()
        with ctx.workdps(0):
            with pytest.raises(ResolutionError, match="129 points"):
                locate_real_zeros(cosine_fn(), (0, 10), ctx)

    def test_a_zero_on_a_grid_point_lets_the_scan_settle(self):
        # 0 is a point of every odd-sized grid on [-5, 5]; its sign change
        # must count alike on and off the grid, or the count alternates
        # between grids and the scan is refused
        ctx = ctx30()
        with ctx.workdps(0):
            f = as_analytic(lambda z: z * (z - 1) * (z + 2), lambda z: 3 * z * z + 2 * z - 2)
            got = locate_real_zeros(f, (-5, 5), ctx, refine_tol=mpf("1e-15"))
            assert len(got) == 3
            for g, r in zip(got, (-2, 0, 1)):
                assert abs(g.location - r) < mpf("1e-12")

    def test_riemann_weight_ordinates(self):
        ctx = ctx_cheap()
        with ctx.workdps(0):
            fn = transform_function(named_density("RiemannPhi", ctx), mpf(0), ctx)
            roots = locate_real_zeros(fn, (10, 25), ctx, refine_tol=mpf("1e-9"))
            assert len(roots) == 2
            assert abs(roots[0].location.real - mpf("14.134725")) < mpf("1e-6")
            assert abs(roots[1].location.real - mpf("21.022040")) < mpf("1e-6")


# ---------------------------------------------------------------------------
# reality verdicts
# ---------------------------------------------------------------------------


class TestVerifyAllReal:
    def test_two_atom_above_threshold(self):
        ctx = ctx30()
        with ctx.workdps(0):
            v = verify_all_real(
                two_atom_cosine(), mpf(1), Rectangle.make(-20, 20, -3, 3), ctx
            )
            assert v.all_real is True
            assert v.worst_offender is None
            assert v.margin == mpf(3)

    def test_two_atom_below_threshold(self):
        ctx = ctx30()
        with ctx.workdps(0):
            v = verify_all_real(
                two_atom_cosine(), mpf("0.5"), Rectangle.make(-20, 20, -3, 3), ctx
            )
            assert v.all_real is False
            # offenders live at odd multiples of pi, height arccosh(2 e^-1/2)
            height = mpmath.acosh(2 * mpmath.exp(mpf("-0.5")))
            assert abs(v.margin - height) < mpf("1e-10")
            x = abs(v.worst_offender.real)
            assert abs(x / mp.pi - mpmath.nint(x / mp.pi)) < mpf("1e-8")

    def test_margin_agrees_across_window_heights(self):
        # widening the strip cannot change which offender sits closest to
        # the axis once it is inside both windows
        ctx = ctx30()
        with ctx.workdps(0):
            thin = verify_all_real(
                two_atom_cosine(), mpf("0.5"), Rectangle.make(-4, 4, -1, 1), ctx
            )
            tall = verify_all_real(
                two_atom_cosine(), mpf("0.5"), Rectangle.make(-4, 4, -3, 3), ctx
            )
            assert thin.all_real is False and tall.all_real is False
            assert abs(thin.margin - tall.margin) < mpf("1e-10")

    def test_offenders_form_conjugate_quadruples(self):
        ctx = ctx30()
        with ctx.workdps(0):
            fn = transform_function(two_atom_cosine(), mpf("0.5"), ctx)
            zs = locate_zeros(fn, Rectangle.make(-8, 8, -2, 2), ctx)
            locs = [z.location for z in zs.zeros]
            assert len(locs) == 4  # one quadruple around +-pi
            for z in locs:
                for mirror in (-z, mpmath.conj(z), -mpmath.conj(z)):
                    assert any(abs(mirror - w) < mpf("1e-9") for w in locs)

    def test_degenerate_transform_offender(self):
        # the one named measure whose transform is not real on the axis:
        # single nonreal zero at 2 alpha i
        ctx = ctx30()
        with ctx.workdps(0):
            v = verify_all_real(
                named_density("Case6", ctx),
                mpf("0.5"),
                Rectangle.make(-5, 5, -3, 3),
                ctx,
            )
            assert v.all_real is False
            assert abs(v.worst_offender - mpc(0, 1)) < mpf("1e-8")

    def test_zero_on_the_edge_grows_the_window_about_the_origin(self):
        # the right edge sits on the real zero arccos(-2/e) of
        # 2/3 + (e/3) cos z: the quarter path dips there, and the retry must
        # keep the window symmetric about both axes
        ctx = ctx30()
        with ctx.workdps(0):
            edge = mpmath.acos(-2 * mpmath.exp(-1))
            v = verify_all_real(
                two_atom_cosine(), mpf(1), Rectangle(-edge, edge, mpf(-1), mpf(1)), ctx
            )
            assert v.all_real is True
            assert v.window.re_max > edge
            # exact negatives (negating one would round it)
            assert v.window.re_min + v.window.re_max == 0
            assert v.window.im_min + v.window.im_max == 0

    @pytest.mark.parametrize("lam", ["9.89", "9.89998"])
    def test_zero_hugging_the_edge_keeps_an_even_count(self, lam):
        # every zero of the smoothed (3/5, 2/5) measure is real from
        # lam ~ 0.39 on; at these two multipliers a zero sits just outside
        # x = 8 (8.0000657 at 9.89), where the full contour once counted an
        # odd 463 of 462 zeros, and at 9.89998 a winding of 509 met 510
        # sign changes
        ctx = PrecisionContext(working_digits=20, target_abs_tol=mpf("1e-10"))
        with ctx.workdps():
            atoms = symmetric_atoms([(0, mpf(3) / 5), (1, mpf(2) / 5)], ctx)
        smoothed = convolve_gaussian(atoms, 10, ctx)
        v = verify_all_real(smoothed, mpf(lam), Rectangle.make(-8, 8, -2, 2), ctx)
        assert v.all_real is True

    def test_certified_real_zeros_above_the_count_are_refused(self):
        # cos has 6 zeros in (-10, 10), all sign changes (a plain function
        # has error estimate 0); a count of 2 below them is a WindingError,
        # never a "not all real"
        ctx = ctx30()
        window = Rectangle.make(-10, 10, -1, 1)
        with ctx.workdps(5):
            with pytest.raises(WindingError):
                _axis_count(cosine_fn(), window, 2, mpf("1e-20"))
            assert _axis_count(cosine_fn(), window, 6, mpf("1e-20")) == 6

    def test_full_route_refuses_more_real_zeros_than_the_count(self, monkeypatch):
        # the window is not centred, so the half path counts; a count of 0
        # below the four real zeros of 2/3 + (e/3) cos z in it is refused
        ctx = ctx_light()
        window = Rectangle.make(-7, 8, -2, 2)
        monkeypatch.setattr(zeros, "_symmetric_count", lambda fn, rect: 0)
        with pytest.raises(WindingError, match="exceed the winding count"):
            verify_all_real(two_atom_cosine(), mpf(1), window, ctx)

    def test_unsettled_scan_short_of_the_count_is_refused(self, monkeypatch):
        # below log 2 the certified crossings stay short of the pair at
        # pi +- iy; without the Kantorovich certificate the scan runs to its
        # end, and with the budget at the first grid it ends unsettled
        monkeypatch.setattr(zeros, "_certify_minimum", lambda fn, grid, window, tol: 0)
        monkeypatch.setattr(zeros, "AXIS_MAX_POINTS", zeros.AXIS_POINTS)
        ctx = ctx_light()
        with pytest.raises(ResolutionError):
            verify_all_real(two_atom_cosine(), mpf("0.5"), Rectangle.make(-8, 8, -2, 2), ctx)

    def test_a_path_count_off_an_integer_falls_back_to_the_whole_contour(self, monkeypatch):
        # with the path count refused, the whole window is located once per
        # verdict against the count of its own sweep, and the cut gives the
        # right answer on both sides of log 2 on a centred and an
        # off-centre window
        located, locate = [], zeros._locate_counted

        def recorded(fn, rect, n, ctx):
            located.append((rect, n))
            return locate(fn, rect, n, ctx)

        monkeypatch.setattr(zeros, "_symmetric_count", lambda fn, rect: None)
        monkeypatch.setattr(zeros, "_locate_counted", recorded)
        ctx = ctx_light()
        for re_min, re_max in ((-8, 8), (-5, 9)):
            located.clear()
            window = Rectangle.make(re_min, re_max, -2, 2)
            for lam, want in (("1", True), ("0.5", False)):
                v = verify_all_real(two_atom_cosine(), mpf(lam), window, ctx)
                assert v.all_real is want
            assert located == [(window, None), (window, None)]

    @pytest.mark.parametrize("above", ["1e-6", "1e-9"])
    def test_near_double_real_pair_above_threshold_reaches_true(self, monkeypatch, above):
        # just above log 2 the zeros pi +- d, d = 1.4e-3 and 4.5e-5, sit
        # inside one cell of the first scan grid; they are certified there as
        # two real zeros, with no double-zero hunt
        ctx = ctx_light()
        with ctx.workdps():
            lam = mpmath.log(2) + mpf(above)
            assert mp.pi - mpmath.acos(-2 * mpmath.exp(-lam)) < mpf("2e-3")
        hunts, hunt = [], zeros.locate_zeros

        def recorded(*args):
            hunts.append(args)
            return hunt(*args)

        monkeypatch.setattr(zeros, "locate_zeros", recorded)
        v = verify_all_real(two_atom_cosine(), lam, Rectangle.make(-8, 8, -2, 2), ctx)
        assert v.all_real is True and v.offender_radius is None
        assert hunts == []

    @pytest.mark.parametrize(
        "re_max, im_max, count", [(8, 2, 4), (12, 1, 8), (4, 1, 4), (6, 2, 4), (10, 2, 8)]
    )
    def test_double_zeros_at_the_threshold_are_real(self, monkeypatch, re_max, im_max, count):
        # at exactly log 2 the zeros of 2/3 + (2/3) cos z, with the weights
        # at working precision, are double zeros at the odd multiples of pi:
        # no sign change certifies them, the scan settles short of the
        # count, and one location of the window finds them on the axis.  The
        # polish of each double zero starts within the noise of it, at the
        # mean of its two power-sum roots
        located, locate = [], zeros._locate_counted

        def recorded(fn, rect, n, ctx):
            located.append((rect, n))
            return locate(fn, rect, n, ctx)

        def refused(*args, **kwargs):
            pytest.fail("a verdict locates only through _locate_counted")

        monkeypatch.setattr(zeros, "_locate_counted", recorded)
        monkeypatch.setattr(zeros, "locate_zeros", refused)
        monkeypatch.setattr(zeros, "locate_real_zeros", refused)
        ctx = ctx_light()
        with ctx.workdps():
            measure = symmetric_atoms([(0, mpf(2) / 3), (1, mpf(1) / 3)], ctx)
            lam = mpmath.log(2)
        window = Rectangle.make(-re_max, re_max, -im_max, im_max)
        v = verify_all_real(measure, lam, window, ctx)
        assert v.all_real is True and v.worst_offender is None and v.margin == im_max
        assert located == [(window, count)]

    def test_the_smoothed_threshold_is_real(self):
        # (3/5, 2/5) smoothed with b0 = 10 at its closed-form threshold
        # b0 - b0^2/(b0 + log 3/2) has real double zeros only; a polish
        # that left one of them ~1e-6 off the axis read "not all real"
        ctx = ctx_light()
        with ctx.workdps():
            b0 = mpf(10)
            base = symmetric_atoms([(mpf(0), mpf(3) / 5), (mpf(1), mpf(2) / 5)])
            measure = convolve_gaussian(base, b0, ctx)
            lam = b0 - b0 * b0 / (b0 + mpmath.log(mpf(3) / 2))
        v = verify_all_real(measure, lam, Rectangle.make(-8, 8, -2, 2), ctx)
        assert v.all_real is True and v.worst_offender is None

    def test_a_certificate_disk_outside_the_window_falls_through(self, monkeypatch):
        # an error estimate of 5e-3 on every value widens the certified disk
        # about the offender pi + 0.6417i of 2/3 + (e^0.5/3) cos z to more
        # than the 0.018 between it and the top edge at 0.66; the scan then
        # settles short of the count with no certificate, and the location
        # of the window finds the pair off the axis and reports its member
        # below the axis, with no radius
        blurred = measures.TransformFunction.parts

        def parts(self, z, which):
            return {
                q: replace(te, abs_error_estimate=te.abs_error_estimate + mpf("5e-3"))
                for q, te in blurred(self, z, which).items()
            }

        monkeypatch.setattr(measures.TransformFunction, "parts", parts)
        ctx = ctx_light()
        with ctx.workdps():
            y = mpmath.acosh(2 * mpmath.exp(mpf("-0.5")))
        tall = verify_all_real(two_atom_cosine(), mpf("0.5"), Rectangle.make(-6, 6, -1, 1), ctx)
        assert tall.all_real is False and tall.offender_radius > mpf("0.66") - y
        low = verify_all_real(
            two_atom_cosine(), mpf("0.5"), Rectangle.make(-6, 6, "-0.66", "0.66"), ctx
        )
        assert low.all_real is False and low.offender_radius is None
        z = low.worst_offender
        with mp.workdps(50):
            assert abs(abs(z.real) - mp.pi) < mpf("1e-8") and abs(z.imag + y) < mpf("1e-8")
            assert low.margin == abs(z.imag)

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
    def test_non_finite_multiplier_is_refused(self, lam):
        # the tail set of a finite measure is all reals, which holds no
        # infinity and no nan: the transform there is not evaluated
        ctx = ctx_light()
        with ctx.workdps():
            lam = mpf(lam)
            with pytest.raises(EntirenessError):
                eval_H(two_atom_cosine(), lam, 0, ctx)
        with pytest.raises(EntirenessError):
            verify_all_real(two_atom_cosine(), lam, Rectangle.make(-8, 8, -2, 2), ctx)

    def test_asymmetric_window_rejected(self):
        ctx = ctx30()
        with ctx.workdps(0):
            with pytest.raises(DomainError):
                verify_all_real(
                    two_atom_cosine(), mpf(1), Rectangle.make(-5, 5, -1, 2), ctx
                )


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-40, max_value=40),
        min_size=2,
        max_size=4,
        unique_by=lambda k: k // 5,
    )
)
def test_polynomial_roots_recovered(tenths):
    # separated real roots r = k/10 of prod (z - r); the scan must find each
    ctx = PrecisionContext(working_digits=30, target_abs_tol=mpf("1e-15"))
    with ctx.workdps(0):
        roots = sorted(mpf(k) / 10 for k in tenths)
        if min(b - a for a, b in zip(roots, roots[1:])) < mpf("0.5"):
            return
        # ascending coefficients of prod (z - r)
        coeffs = [mpf(1)]
        for r in roots:
            new = [mpf(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] += c
                new[i] -= r * c
            coeffs = new
        desc = coeffs[::-1]
        ddesc = [c * (len(desc) - 1 - i) for i, c in enumerate(desc[:-1])]
        f = as_analytic(
            lambda z: mpmath.polyval(desc, z),
            lambda z: mpmath.polyval(ddesc, z),
        )
        got = locate_real_zeros(f, (-5, 5), ctx, refine_tol=mpf("1e-15"))
        assert len(got) == len(roots)
        for g, r in zip(got, roots):
            assert abs(g.location.real - r) < mpf("1e-12")


# ---------------------------------------------------------------------------
# the quarter-contour count and the symmetric verdict against exact zeros
# ---------------------------------------------------------------------------


def _cosine_zeros(w0, w1, t):
    """One period's zeros (x, y) of w0 + w1 cos(tz), x in (0, 2 pi / t], w0 != w1:
    real ones at +-arccos(-w0/w1) when w0 < w1, else the pair pi +- i arccosh(w0/w1)."""
    r = w0 / w1
    if r < 1:
        theta = mpmath.acos(-r)
        return [(theta / t, mpf(0)), ((2 * mp.pi - theta) / t, mpf(0))]
    y = mpmath.acosh(r) / t
    return [(mp.pi / t, y), (mp.pi / t, -y)]


def _zeros_up_to(factor, reach):
    """Every zero z of one cosine factor with |Re z| < reach."""
    w0, w1, t = factor
    period = 2 * mp.pi / t
    out = []
    for x, y in _cosine_zeros(w0, w1, t):
        k = int(mpmath.ceil(reach / period)) + 1
        out += [mpc(x + j * period, y) for j in range(-k - 1, k + 1)]
    return [z for z in out if abs(z.real) < reach]


def _exact_count(factors, rect):
    reach = max(abs(rect.re_min), abs(rect.re_max)) + 1
    return sum(
        1
        for f in factors
        for z in _zeros_up_to(f, reach)
        if rect.re_min < z.real < rect.re_max and abs(z.imag) < rect.im_max
    )


def _cosine_product(factors):
    def value(z):
        out = mpf(1)
        for w0, w1, t in factors:
            out *= w0 + w1 * mpmath.cos(t * z)
        return out

    def deriv(z):
        terms = [(w0 + w1 * mpmath.cos(t * z), -w1 * t * mpmath.sin(t * z)) for w0, w1, t in factors]
        out = mpf(0)
        for i, (_, d) in enumerate(terms):
            prod = d
            for j, (v, _) in enumerate(terms):
                if j != i:
                    prod *= v
            out += prod
        return out

    return as_analytic(value, deriv)


COSINE_FACTOR = st.tuples(
    st.floats(0.1, 3),  # w0
    st.floats(0.1, 3),  # w1
    st.floats(0.5, 2.5),  # t
).filter(lambda f: abs(f[0] / f[1] - 1) > 0.05)

#: centre of a window symmetric about the axis: the origin, or off it
WINDOW_CENTRE = st.one_of(st.just(0.0), st.floats(-4, 4))


@settings(max_examples=25, deadline=None)
@given(
    factors=st.lists(COSINE_FACTOR, min_size=1, max_size=2),
    half_width=st.floats(1, 7),
    half_height=st.floats(0.2, 1.5),
    hug=st.sampled_from([None, "re", "im"]),
    hug_index=st.integers(0, 50),
    gap=st.sampled_from(["1e-4", "-1e-4", "3e-5", "-3e-5"]),
    centre=WINDOW_CENTRE,
)
# a zero 1e-4 below the top edge of the quarter path, off the centre of
# its panel, that both rules missed (6 for 8)
@example(
    factors=[(2.0, 1.0, 2.4889612636575227)],
    half_width=5.759954511519144,
    half_height=1.0,
    hug="im",
    hug_index=0,
    gap="1e-4",
    centre=0.0,
)
def test_property_quarter_count_matches_exact_zeros(
    factors, half_width, half_height, hug, hug_index, gap, centre
):
    """The path count of w0 + w1 cos(tz) and of products of two such
    factors against their exact zero sets, on windows symmetric about the
    axis: centred at the origin (the quarter path) or off it (the half
    path).  hug moves the right or the top edge to within |gap| of a zero.
    count_zeros, the full contour of locate_zeros, is held to the same
    count on windows that hug no zero; test_full_contour_misses_a_zero_
    hugging_an_edge_midpoint holds it on windows that hug one."""
    ctx = PrecisionContext(working_digits=20, target_abs_tol=mpf("1e-10"))
    with ctx.workdps(5):
        factors = [tuple(mpf(v) for v in f) for f in factors]
        c, a, b = mpf(centre), mpf(half_width), mpf(half_height)
        if hug is not None:
            near = [
                z for f in factors for z in _zeros_up_to(f, abs(c) + a + 1)
                if z.real > c and (hug == "re" or z.imag > 0)
            ]
            if near:
                z = near[hug_index % len(near)]
                if hug == "re":
                    a = z.real - c + mpf(gap)
                else:
                    b = z.imag + mpf(gap)
        rect = Rectangle(c - a, c + a, -b, b)
        fn = _cosine_product(factors)
        want = _exact_count(factors, rect)
        assert _symmetric_count(fn, rect) == want
    if hug is None:
        assert count_zeros(fn, rect, ctx) == want


@settings(max_examples=8, deadline=None)
@given(
    factors=st.lists(COSINE_FACTOR, min_size=1, max_size=2),
    half_width=st.floats(1, 4),
    half_height=st.floats(0.2, 1.5),
    hug=st.sampled_from(["re", "im"]),
    hug_index=st.integers(0, 50),
    gap=st.sampled_from(["1e-4", "-1e-4", "3e-5", "-3e-5"]),
    centre=WINDOW_CENTRE,
)
def test_property_count_zeros_on_windows_that_hug_a_zero(
    factors, half_width, half_height, hug, hug_index, gap, centre
):
    """count_zeros against the exact zero set of w0 + w1 cos(tz) and of
    products of two such factors, on windows whose right or top edge lies
    |gap| from a zero.  Every gap exceeds sqrt(loc_tol) = 1e-5, the
    distance from an edge within which count_zeros refuses, so the count
    must be exact."""
    ctx = PrecisionContext(working_digits=20, target_abs_tol=mpf("1e-10"))
    with ctx.workdps(5):
        factors = [tuple(mpf(v) for v in f) for f in factors]
        c, a, b = mpf(centre), mpf(half_width), mpf(half_height)
        near = [
            z for f in factors for z in _zeros_up_to(f, abs(c) + a + 1)
            if z.real > c and (hug == "re" or z.imag > 0)
        ]
        assume(near)
        z = near[hug_index % len(near)]
        if hug == "re":
            a = z.real - c + mpf(gap)
        else:
            b = z.imag + mpf(gap)
        rect = Rectangle(c - a, c + a, -b, b)
        fn = _cosine_product(factors)
        want = _exact_count(factors, rect)
    assert count_zeros(fn, rect, ctx) == want


def test_full_contour_misses_a_zero_hugging_an_edge_midpoint():
    # 1 + 2 cos z has real zeros at +-2 pi/3; with the vertical edges within
    # delta of them, each zero sits at the centre of its edge's first panel,
    # where the two Gauss-Legendre rules of integrate_adaptive cancel the
    # pole's odd part alike.  The path held to WINDING_SLACK, whose phase
    # check halves such an edge, and the locator's sweep, held to
    # _moment_tol, must both count them exactly
    ctx = PrecisionContext(working_digits=20, target_abs_tol=mpf("1e-10"))
    fn = _cosine_product([(mpf(1), mpf(2), mpf(1))])
    for delta, want in (("1e-3", 2), ("1e-4", 2), ("3e-5", 2), ("-1e-4", 0), ("-3e-5", 0)):
        with ctx.workdps(5):
            a = 2 * mp.pi / 3 + mpf(delta)
            rect = Rectangle(-a, a, mpf(-1), mpf(1))
            assert _symmetric_count(fn, rect) == want
        assert count_zeros(fn, rect, ctx) == want, delta


def test_half_path_counts_a_zero_hugging_its_top_edge():
    # 2 + cos z has the zeros +-pi +- i arccosh 2 in [c - 5, c + 5] x [-b, b]
    # for b > arccosh 2; with the top edge within 1e-4 of them and c = 2^-7
    # (the half path), each zero sits near the centre of a panel of the path
    # integrated to WINDING_SLACK, where both Gauss-Legendre rules miss its
    # half-turn (3 for 4, 1 for 0); the phase of f across the gap between
    # the middle nodes jumps by about pi, so the edge is halved until the
    # count is exact
    ctx = PrecisionContext(working_digits=20, target_abs_tol=mpf("1e-10"))
    fn = _cosine_product([(mpf(2), mpf(1), mpf(1))])
    with ctx.workdps(5):
        c = mpf(2) ** -7
        for gap, want in (("1e-4", 4), ("-1e-4", 0)):
            b = mpmath.acosh(2) + mpf(gap)
            assert _symmetric_count(fn, Rectangle(c - 5, c + 5, -b, b)) == want, gap


def test_a_fast_smooth_phase_keeps_an_edge_whole(monkeypatch):
    # e^{-z^2/0.4} turns 10 rad per unit along Im z = 2, about 1 rad between
    # the middle nodes of a panel over [0, 8], but f'/f is linear, so each
    # step is the one the integrand predicts and the edge is not halved
    fn = as_analytic(
        lambda z: mpmath.exp(-z * z / mpf("0.4")),
        lambda z: -z / mpf("0.2") * mpmath.exp(-z * z / mpf("0.4")),
    )
    calls, integrate = [], zeros.numerics.integrate_adaptive
    monkeypatch.setattr(
        zeros.numerics, "integrate_adaptive",
        lambda *args, **kwargs: calls.append(args[1:3]) or integrate(*args, **kwargs),
    )
    with mp.workdps(20):
        (total,), _ = zeros._path_pass(fn, (mpc(8, 2), mpc(0, 2)), mpf(8), mpf("0.25"))
    assert calls == [(0.0, 1.0)]
    # log f(2i) - log f(8 + 2i) = ((8 + 2i)^2 - (2i)^2) / 0.4 = 160 + 80i
    assert abs(total - mpc(160, 80)) < mpf("1e-8")


@settings(max_examples=25, deadline=None)
@given(
    w0=st.floats(0.1, 3),
    w1=st.floats(0.1, 3),
    t=st.floats(0.5, 2),
    shift=st.floats(0.05, 1.5),
    above=st.booleans(),
    half_width=st.floats(2, 10),
    half_height=st.floats(0.2, 3),
    centre=WINDOW_CENTRE,
)
def test_property_verdict_matches_exact_two_atom_verdict(
    w0, w1, t, shift, above, half_width, half_height, centre
):
    """verify_all_real on the two-atom measure w0 at 0, w1 at +-t, whose
    H = w0 + w1 e^{lam t^2} cos(tz) has only real zeros from
    lam = ln(w0/w1)/t^2 on; lam is drawn at least 0.05 from there.  The
    window is centred at the origin or off it."""
    ctx = PrecisionContext(working_digits=20, target_abs_tol=mpf("1e-10"))
    with ctx.workdps():
        w0, w1, t = mpf(w0), mpf(w1), mpf(t)
        threshold = mpmath.log(w0 / w1) / (t * t)
        lam = threshold + mpf(shift) if above else threshold - mpf(shift)
        measure = symmetric_atoms([(0, w0), (t, w1)], ctx)
        window = Rectangle.make(
            centre - half_width, centre + half_width, -half_height, half_height
        )
    v = verify_all_real(measure, lam, window, ctx)
    with ctx.workdps():
        used = v.window
        if centre == 0:
            assert used.centered_at_origin()
        else:
            assert used.symmetric_about_axis()
        # nonreal zeros sit at odd multiples of pi/t, height arccosh(r)/t;
        # x is the first of them right of re_min
        r = w0 / (w1 * mpmath.exp(lam * t * t))
        x = (2 * mpmath.floor((used.re_min * t / mp.pi + 1) / 2) + 1) * mp.pi / t
        offender_inside = r > 1 and x < used.re_max and mpmath.acosh(r) / t < used.im_max
    assert v.all_real is not offender_inside


@settings(max_examples=15, deadline=None)
@given(
    w0=st.floats(0.1, 3),
    w1=st.floats(0.1, 3),
    t=st.floats(0.5, 1.25),
    shift=st.floats(0.05, 0.25),
)
def test_property_false_verdict_carries_a_certified_offender(w0, w1, t, shift):
    """Below the two-atom threshold ln(w0/w1)/t^2 by shift, a verdict is
    False and carries a Newton-Kantorovich offender whose disk holds an
    exact zero pi(2k+1)/t +- i arccosh(w0/(w1 e^{lam t^2}))/t.  The
    window [-2pi/t, 2pi/t] x [-2, 2] holds the zeros at k = -1 and 0."""
    ctx = PrecisionContext(working_digits=20, target_abs_tol=mpf("1e-10"))
    with ctx.workdps():
        w0, w1, t = mpf(w0), mpf(w1), mpf(t)
        lam = mpmath.log(w0 / w1) / (t * t) - mpf(shift)
        measure = symmetric_atoms([(0, w0), (t, w1)], ctx)
        a = 2 * mp.pi / t
        window = Rectangle(-a, a, mpf(-2), mpf(2))
    v = verify_all_real(measure, lam, window, ctx)
    assert v.all_real is False and v.offender_radius is not None
    with mp.workdps(50):
        y = mpmath.acosh(w0 / (w1 * mpmath.exp(lam * t * t))) / t
        z, r = v.worst_offender, v.offender_radius
        assert r < abs(z.imag) and v.margin == abs(z.imag)
        exact = [mpc(sx * mp.pi / t, sy * y) for sx in (-1, 1) for sy in (-1, 1)]
        assert min(abs(z - e) for e in exact) <= r


def test_unconverged_newton_is_not_a_zero():
    # Newton on z^3 - 2z + 2 from 0 cycles 0 -> 1 -> 0; after its steps run
    # out _polish returns no point, so location subdivides instead
    f = as_analytic(lambda z: z**3 - 2 * z + 2, lambda z: 3 * z**2 - 2)
    with mp.workdps(30):
        assert _polish(f, mpc(0), 1, mpf("1e-20"), Rectangle.make(-1, 2, -1, 1)) is None
        zs = locate_zeros(f, Rectangle.make(-3, 3, -2, 2), ctx30())
    assert zs.count == 3
    for z in zs.zeros:
        assert abs(f(z.location)) < mpf("1e-12")


def test_double_zero_polish_stops_at_the_noise_floor():
    # Newton with multiplicity 2 about the double zero pi of the two-atom
    # transform at log 2, (2/3)(1 + cos z), settles at a constant step far
    # above tol = 1e-15, as in locate_real_zeros under ctx30; it stops there
    # instead of spending all 60 steps
    ctx = ctx30()
    with ctx.workdps(5):
        fn = transform_function(two_atom_cosine(), mpmath.log(2), ctx)
        steps = []

        class Counted:
            def value_and_derivative(self, z):
                steps.append(z)
                return fn.value_and_derivative(z)

            def __call__(self, z):
                return fn(z)

        box = Rectangle(mp.pi - mpf("0.1"), mp.pi + mpf("0.1"), mpf("-0.1"), mpf("0.1"))
        z, _ = _polish(Counted(), mp.pi + mpf("1e-3"), 2, mpf("1e-15"), box)
        assert len(steps) <= 10
        assert abs(z - mp.pi) < mpf("1e-10")


# ---------------------------------------------------------------------------
# location from power sums
# ---------------------------------------------------------------------------


def _polynomial(zeros_with_multiplicity):
    """prod (z - r)^m as an analytic function, not real on the axis."""
    def value(z):
        out = mpc(1)
        for r, m in zeros_with_multiplicity:
            out *= (z - r) ** m
        return out

    def deriv(z):
        return value(z) * sum(m / (z - r) for r, m in zeros_with_multiplicity)

    return as_analytic(value, deriv, real_on_axis=False)


def _refuse_to_split(fn, rect):
    raise AssertionError("the power-sum step did not accept %s" % (rect,))


#: lattice points of [-1, 1]^2 a quarter apart
LATTICE = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@settings(max_examples=20, deadline=None)
@given(
    points=st.lists(LATTICE, min_size=1, max_size=8, unique=True),
    double=st.one_of(st.none(), st.integers(0, 7)),
)
def test_property_power_sums_locate_exact_zeros(points, double):
    """Polynomials with 1-8 zeros on a lattice of [-1, 1]^2, at most one of
    them double, are solved by the power-sum step of the top box alone."""
    if double is not None and (double >= len(points) or len(points) == 8):
        double = None
    ctx = ctx30()
    with ctx.workdps(5):
        exact = [
            (mpc(mpf(x) / 4, mpf(y) / 4), 2 if i == double else 1)
            for i, (x, y) in enumerate(points)
        ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zeros, "_choose_split", _refuse_to_split)
        zs = locate_zeros(_polynomial(exact), Rectangle.make(-2, 2, -2, 2), ctx)
    assert zs.count == sum(m for _, m in exact) == zs.total_multiplicity()
    assert len(zs.zeros) == len(exact)
    for r, m in exact:
        hits = [z for z in zs.zeros if abs(z.location - r) < mpf("1e-12")]
        assert len(hits) == 1 and hits[0].multiplicity == m


def _lattice_polynomial(points, double):
    # roots k/4 and their coefficients, highest first: every product of
    # quarters up to degree 8 is exact in binary
    roots = [complex(x, y) / 4 for x, y in points]
    coeffs = [1 + 0j]
    for r in roots + ([roots[double]] if double is not None else []):
        coeffs = [a - r * b for a, b in zip(coeffs + [0j], [0j] + coeffs)]
    return roots, coeffs


def _root_condition(coeffs, r, m):
    """sum |a_k| |r|^k / |p^(m)(r) / m!|: a relative change u in every
    coefficient moves a root of multiplicity m by about (u kappa)^(1/m)."""
    n = len(coeffs) - 1
    size = sum(abs(a) * abs(r) ** (n - i) for i, a in enumerate(coeffs))
    taylor = sum(
        a * math.comb(n - i, m) * r ** (n - i - m) for i, a in enumerate(coeffs[: n - m + 1])
    )
    return size / abs(taylor)


@settings(max_examples=60, deadline=None)
@given(
    points=st.lists(LATTICE, min_size=1, max_size=8, unique=True),
    double=st.one_of(st.none(), st.integers(0, 7)),
)
def test_property_float_qr_returns_every_root(points, double):
    """The companion QR in complex floats returns the n roots of a monic
    polynomial of degree 1-8 with roots on the quarter lattice of
    [-1, 1]^2, at most one of them double: each simple root within 1e-12
    and the double root (both its returned roots) within 1e-6.  Where the
    root's own conditioning puts it past float64's reach, as for a cluster
    of lattice roots in a corner (3e-10 off for a simple root there),
    the bound is the one a backward-stable method keeps, 16 u kappa for a
    simple root and 16 sqrt(u kappa) for the double one."""
    if double is not None and (double >= len(points) or len(points) == 8):
        double = None
    roots, coeffs = _lattice_polynomial(points, double)
    got = zeros._polynomial_roots([mpc(c) for c in coeffs])
    assert got is not None and len(got) == len(coeffs) - 1
    u = 2.0**-53
    for i, r in enumerate(roots):
        if i == double:
            bound = max(1e-6, 16 * math.sqrt(u * _root_condition(coeffs, r, 2)))
            assert sorted(abs(g - r) for g in got)[1] <= bound
        else:
            bound = max(1e-12, 16 * u * _root_condition(coeffs, r, 1))
            assert min(abs(g - r) for g in got) <= bound


def test_a_near_pair_stays_two_simple_zeros(monkeypatch):
    # zeros 1e-6 apart are far more than 1e3 loc_tol = 1e-12 apart: two
    # simple zeros, not a double one, and not flagged as a cluster
    ctx = ctx30()
    with ctx.workdps(5):
        a = mpc("0.3", "0.2")
        exact = [(a, 1), (a + mpf("1e-6"), 1), (mpc("-0.5", "0.7"), 1)]
    monkeypatch.setattr(zeros, "_choose_split", _refuse_to_split)
    zs = locate_zeros(_polynomial(exact), Rectangle.make(-2, 2, -2, 2), ctx)
    assert [z.multiplicity for z in zs.zeros] == [1, 1, 1]
    assert not any(z.cluster for z in zs.zeros)
    for r, _ in exact:
        assert min(abs(z.location - r) for z in zs.zeros) < mpf("1e-14")


def test_quadrisection_gives_the_same_zeros_when_the_step_fails(monkeypatch):
    # the two-atom transform at 1/2 on [-8, 8] x [-2, 2]: the quadruple
    # +-pi +- 0.64i; with the step refused on the top box, quadrisection
    # must find the same ZeroSet
    ctx = ctx30()
    with ctx.workdps(5):
        fn = transform_function(two_atom_cosine(), mpf("0.5"), ctx)
    rect = Rectangle.make(-8, 8, -2, 2)
    direct = locate_zeros(fn, rect, ctx)
    step, tops = zeros._power_sum_zeros, []

    def refused_on_top(fn, box, *args):
        if box == rect:
            tops.append(box)
            return None
        return step(fn, box, *args)

    monkeypatch.setattr(zeros, "_power_sum_zeros", refused_on_top)
    split = locate_zeros(fn, rect, ctx)
    assert tops == [rect]
    assert (split.rect, split.count) == (direct.rect, direct.count) == (rect, 4)
    assert len(split.zeros) == len(direct.zeros)
    for a in direct.zeros:
        b = min(split.zeros, key=lambda z: abs(z.location - a.location))
        assert (a.multiplicity, a.cluster) == (b.multiplicity, b.cluster)
        assert abs(a.location - b.location) < mpf("1e-14")


def test_split_lines_avoid_the_axis_of_a_real_on_axis_function(monkeypatch):
    # cos z has 10 zeros on [-15, 15] x [-1, 1], more than one power-sum
    # step takes; the horizontal split through them would be y = 0, and a
    # contour through a zero restarts location on a nudged window
    nudges, nudge = [], zeros._nudge

    def recorded(rect):
        nudges.append(rect)
        return nudge(rect)

    monkeypatch.setattr(zeros, "_nudge", recorded)
    ctx = ctx30()
    zs = locate_zeros(cosine_fn(), Rectangle.make(-15, 15, -1, 1), ctx)
    assert nudges == []
    assert zs.count == 10 and len(zs.zeros) == 10
    with ctx.workdps(5):
        got = sorted(mpmath.re(z.location) for z in zs.zeros)
        for k, x in zip(range(-5, 5), got):
            assert abs(x - (k + mpf(1) / 2) * mp.pi) < mpf("1e-14")
    assert all(z.multiplicity == 1 and mpmath.im(z.location) == 0 for z in zs.zeros)


@pytest.mark.parametrize("re_min, re_max", [(2, "4.5"), (-4, 4)])
def test_the_reported_offender_does_not_depend_on_location_order(monkeypatch, re_min, re_max):
    # the conjugate pair pi +- 0.64i of the two-atom transform at 1/2, and
    # the quadruple +-pi +- 0.64i: location in either order reports the same
    # offender, below the axis.  With the Kantorovich certificate off, the
    # scan settles short of the count and the window is located
    monkeypatch.setattr(zeros, "_certify_minimum", lambda fn, grid, window, tol: 0)
    ctx = ctx30()
    window = Rectangle.make(re_min, re_max, -2, 2)
    forward = verify_all_real(two_atom_cosine(), mpf("0.5"), window, ctx)
    located = zeros._locate_counted

    def reversed_order(*args):
        zs = located(*args)
        return replace(zs, zeros=zs.zeros[::-1])

    monkeypatch.setattr(zeros, "_locate_counted", reversed_order)
    backward = verify_all_real(two_atom_cosine(), mpf("0.5"), window, ctx)
    assert forward.worst_offender == backward.worst_offender
    assert forward.worst_offender.imag < 0 and forward.offender_radius is None


def test_locate_zeros_sweeps_its_top_rectangle_once(monkeypatch):
    # the count of locate_zeros is the winding of the sweep that also gives
    # the power sums, not a pass of its own
    swept, sweep = [], zeros._contour_pass

    def recorded(fn, rect, *args, **kwargs):
        swept.append(rect)
        return sweep(fn, rect, *args, **kwargs)

    monkeypatch.setattr(zeros, "_contour_pass", recorded)
    ctx = ctx_light()
    window = Rectangle.make(-8, 8, -2, 2)
    with ctx.workdps():
        fn = transform_function(two_atom_cosine(), mpf("0.5"), ctx)
    zs = locate_zeros(fn, window, ctx)
    assert zs.count == 4 and zs.total_multiplicity() == 4
    assert swept.count(window) == 1


def _record_location(monkeypatch):
    """Record each _locate_counted call as (rect, count), and for each
    _contour_pass whether it ran inside one."""
    located, swept, inside = [], [], [False]
    locate, sweep = zeros._locate_counted, zeros._contour_pass

    def recorded_locate(fn, rect, count, ctx):
        located.append((rect, count))
        inside[0] = True
        try:
            return locate(fn, rect, count, ctx)
        finally:
            inside[0] = False

    def recorded_sweep(*args):
        swept.append(inside[0])
        return sweep(*args)

    monkeypatch.setattr(zeros, "_locate_counted", recorded_locate)
    monkeypatch.setattr(zeros, "_contour_pass", recorded_sweep)
    return located, swept


def test_a_false_verdict_locates_against_its_own_count(monkeypatch):
    # the half path counts 4 zeros of Case 8 at -1/4 in the window, and the
    # scan certifies 2 of them without certifying the pair at pi +- 0.99i;
    # location checks its multiplicities against that count instead of
    # counting the whole window again with a contour sweep of its own
    ctx = ctx_light()
    with ctx.workdps():
        case8 = named_density("Case8", ctx)
    located, swept = _record_location(monkeypatch)
    window = Rectangle.make("1.5", "4.8", -2, 2)
    v = verify_all_real(case8, mpf("-0.25"), window, ctx)
    assert v.all_real is False and v.offender_radius is None
    assert located == [(window, 4)]
    assert swept and all(swept)
    assert abs(v.worst_offender.real - mp.pi) < mpf("1e-8") and v.worst_offender.imag < 0


def test_a_certified_offender_is_not_located(monkeypatch):
    # the scan certifies the offender pi + 0.64i of 2/3 + (e^0.5/3) cos z by
    # Kantorovich: the verdict reports it below the axis, with its radius,
    # and locates nothing
    located, swept = _record_location(monkeypatch)
    ctx = ctx_light()
    v = verify_all_real(two_atom_cosine(), mpf("0.5"), Rectangle.make(-4, 4, -1, 1), ctx)
    assert v.all_real is False and located == [] and swept == []
    with mp.workdps(50):
        y = mpmath.acosh(2 * mpmath.exp(mpf("-0.5")))
        z, r = v.worst_offender, v.offender_radius
        assert r is not None and r < abs(z.imag) and v.margin == abs(z.imag)
        assert abs(abs(z.real) - mp.pi) + abs(z.imag + y) <= r


@pytest.mark.parametrize("b", ["0", "0.5"])
def test_a_transform_not_real_on_the_axis_is_located_once(monkeypatch, b):
    # Case 6 has one zero, 2(1-b)i, and no path count: its window is located
    # once against the count of its own sweep, with no winding count of the
    # window or of a strip about the axis
    located, swept = _record_location(monkeypatch)
    ctx = ctx_light()
    window = Rectangle.make(-4, 4, -3, 3)
    v = verify_all_real(named_density("Case6", ctx), mpf(b), window, ctx)
    assert v.all_real is False and v.window == window
    assert located == [(window, None)] and swept and all(swept)
    with ctx.workdps():
        target = mpc(0, 2 * (1 - mpf(b)))
    assert abs(v.worst_offender - target) < mpf("1e-8")
    assert v.margin == abs(mpmath.im(v.worst_offender)) and v.offender_radius is None


# ---------------------------------------------------------------------------
# float64 twins: decisions from twin values equal decisions from mpmath
# ---------------------------------------------------------------------------


def _record_twin(monkeypatch):
    """Record (z, result) of every TransformFunction.twin call."""
    calls, original = [], measures.TransformFunction.twin

    def recorded(self, z, deriv=False):
        got = original(self, z, deriv)
        calls.append((z, got))
        return got

    monkeypatch.setattr(measures.TransformFunction, "twin", recorded)
    return calls


def _twin_off(monkeypatch):
    monkeypatch.setattr(measures.TransformFunction, "twin", lambda self, z, deriv=False: None)


def test_a_scan_point_next_to_a_zero_takes_mpmath(monkeypatch):
    # 2/3 + (e/3) cos z has a real zero at x* = arccos(-2/e); the window
    # [-a, a] with a = 2 (x* - 1e-15) puts the middle point a/2 of the first
    # grid of the scan over [0, a] 1e-15 from x*, where |H| is below the
    # twin's rounding bound
    ctx = ctx_light()
    with ctx.workdps(5):
        measure, lam = two_atom_cosine(), mpf(1)
        x_star = mpmath.acos(-2 / mpmath.e)
        a = 2 * (x_star - mpf("1e-15"))
        window = Rectangle(-a, a, mpf(-1), mpf(1))
        fn = transform_function(measure, lam, ctx)
    calls = _record_twin(monkeypatch)
    with_twin = verify_all_real(measure, lam, window, ctx)
    reals = locate_real_zeros(fn, (0, a), ctx)
    with ctx.workdps(5):
        count = _symmetric_count(fn, window)
        at_zero = [got for z, got in calls if complex(z) == complex(mpc(a / 2, 0))]
    assert at_zero and all(got is None for got in at_zero)
    assert sum(got is not None for _, got in calls) > 0.9 * len(calls)
    _twin_off(monkeypatch)
    assert verify_all_real(measure, lam, window, ctx) == with_twin
    assert with_twin.all_real and count == 4
    assert locate_real_zeros(fn, (0, a), ctx) == reals and len(reals) == 2
    with ctx.workdps(5):
        assert _symmetric_count(fn, window) == count


def test_convolution_verdict_near_b0_runs_through_the_twin(monkeypatch):
    # at lam = 0.99 b0 the smeared atom's weight is e^{990}, past the float
    # range: the twin's scale keeps it in range, and the count and verdict
    # equal those of mpmath alone
    ctx = ctx_light()
    with ctx.workdps():
        measure = convolve_gaussian(symmetric_atoms([(0, "0.6"), (1, "0.4")]), 10, ctx)
        lam, window = mpf("9.9"), Rectangle.make(-8, 8, -2, 2)
        fn = transform_function(measure, lam, ctx)
    calls = _record_twin(monkeypatch)
    verdict = verify_all_real(measure, lam, window, ctx)
    with ctx.workdps(5):
        count = _symmetric_count(fn, window)
    assert sum(got is not None for _, got in calls) > 0.9 * len(calls)
    _twin_off(monkeypatch)
    assert verify_all_real(measure, lam, window, ctx) == verdict and verdict.all_real
    with ctx.workdps(5):
        assert _symmetric_count(fn, window) == count


def test_a_far_nonreal_pair_gets_a_certified_offender():
    # {0: 5/6, +-1.6: 1/6} at lam = 0.238 has its pair at pi/1.6 +- 1.036i:
    # the |H| minimum under it is too shallow for the double-zero gate, so
    # the offender comes from the deepest quiet minimum of the scan
    ctx = ctx_light()
    with ctx.workdps():
        w0, w1, t, lam = mpf(5) / 6, mpf(1) / 6, mpf("1.6"), mpf("0.238")
        measure = symmetric_atoms([(0, w0), (t, w1)], ctx)
        window = Rectangle.make("-3.93", "3.93", "-1.875", "1.875")
    v = verify_all_real(measure, lam, window, ctx)
    assert v.all_real is False and v.offender_radius is not None
    with mp.workdps(40):
        y = mpmath.acosh(w0 / (w1 * mpmath.exp(lam * t * t))) / t
        z = v.worst_offender
        assert abs(abs(z.imag) - y) + abs(z.real - mp.pi / t) <= v.offender_radius
        assert v.margin == abs(z.imag)


# ---------------------------------------------------------------------------
# float64 contour quadrature
# ---------------------------------------------------------------------------


def test_a_single_zero_at_the_box_centre_is_located():
    # the float power sums of a zero at the centre cancel exactly, so its
    # seed lands on the zero, where the test polynomial's f' = f sum m/(z - r)
    # divides 0 by 0
    ctx = ctx30()
    fn = _polynomial([(mpc(0), 1)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zeros, "_choose_split", _refuse_to_split)
        zs = locate_zeros(fn, Rectangle.make(-2, 2, -2, 2), ctx)
    assert zs.count == 1 and len(zs.zeros) == 1
    assert zs.zeros[0].location == 0 and zs.zeros[0].multiplicity == 1
    with ctx.workdps(5):
        rect = Rectangle.make(-1, 1, -1, 1)
        assert _polish(fn, mpc(0), 1, mpf("1e-20"), rect) == (mpc(0), 0)
        # a division by zero away from a zero is no zero: it propagates
        broken = as_analytic(lambda z: z - 1, lambda z: 1 / (z - z))
        with pytest.raises(ZeroDivisionError):
            _polish(broken, mpc(0), 1, mpf("1e-20"), rect)


def _mpmath_contour_pass(fn, rect, abs_tol, n_moments):
    """_contour_pass's winding and power sums from integrate_adaptive on mpf
    ends over the same edges, with the same shares of abs_tol: the mpmath
    route that the float one replaced."""
    corners = rect.corners()
    c, rho = rect.center(), mpmath.hypot(rect.width, rect.height) / 2
    perim = 2 * (rect.width + rect.height)
    totals = [mpc(0)] * (1 + n_moments)
    for za, zb in zip(corners, corners[1:] + corners[:1]):
        dz = zb - za

        def integrand(t):
            z = za + t * dz
            v, d = fn.value_and_derivative(z)
            out = [d / v * dz]
            for _ in range(n_moments):
                out.append(out[-1] * (z - c) / rho)
            return out

        vals, _, _ = integrate_adaptive(
            integrand, mpf(0), mpf(1), abs_tol * abs(dz) / perim, ncomp=1 + n_moments
        )
        totals = [s + v for s, v in zip(totals, vals)]
    return [s / (2 * mp.pi * mpc(0, 1)) for s in totals]


POINT = st.tuples(st.floats(-1.9, 1.9), st.floats(-1.9, 1.9))


@settings(max_examples=15, deadline=None)
@given(points=st.lists(POINT, min_size=1, max_size=8))
def test_property_float_contour_pass_matches_the_mpmath_route(points):
    """Windings and power sums of polynomials, which have no twin, agree
    with the mpmath route to 1e-10."""
    ctx = ctx30()
    with ctx.workdps(5):
        fn = _polynomial([(mpc(x, y), 1) for x, y in points])
        rect = Rectangle.make(-2, 2, -2, 2)
        tol = mpf("1e-11")
        got, err = zeros._contour_pass(fn, rect, tol)
        want = _mpmath_contour_pass(fn, rect, tol, MAX_POWER_SUMS)
        assert abs(got[0] - len(points)) < mpf("1e-10")
        assert err <= tol
        for a, b in zip(got, want):
            assert abs(a - b) < mpf("1e-10")


def _count_evaluations(monkeypatch):
    """Count twin values, and mpmath evaluations (top-level eval_H_parts
    calls), from here on."""
    counts, twin, evaluate = {"twin": 0, "mpmath": 0}, measures.TransformFunction.twin, measures.eval_H_parts
    depth = [0]

    def counted_twin(self, z, deriv=False):
        got = twin(self, z, deriv)
        counts["twin"] += got is not None
        return got

    def counted_eval(*args, **kwargs):
        counts["mpmath"] += depth[0] == 0
        depth[0] += 1
        try:
            return evaluate(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(measures.TransformFunction, "twin", counted_twin)
    monkeypatch.setattr(measures, "eval_H_parts", counted_eval)
    return counts


def test_evaluation_counts_of_two_offender_verdicts(monkeypatch):
    # counts repeat exactly: a change to panel acceptance, the twin's reach
    # or the routes' order shows here.  Each verdict takes the half or
    # quarter path and the axis scan.  The scan certifies the offender
    # pi + 0.64i of the two-atom transform, and the verdict ends there.
    # Case 8's pair at pi +- 0.99i has no certificate, so its window is
    # located; the mirror check evaluates each of its 8 points once, and
    # the box corners that scale the residual gate take the twin.  Each
    # path's and each contour's corners take the twin once more, for the
    # phases that check the edge integrals
    ctx = ctx_light()
    with ctx.workdps():
        case8 = named_density("Case8", ctx)
    counts = _count_evaluations(monkeypatch)
    v = verify_all_real(two_atom_cosine(), mpf("0.5"), Rectangle.make(-4, 4, -1, 1), ctx)
    assert v.all_real is False
    assert counts == {"twin": 140, "mpmath": 6}
    counts.update(twin=0, mpmath=0)
    v = verify_all_real(case8, mpf("-0.25"), Rectangle.make("1.5", "4.8", -2, 2), ctx)
    assert v.all_real is False and abs(v.worst_offender.real - mp.pi) < mpf("1e-8")
    assert counts == {"twin": 1229, "mpmath": 16}


# ---------------------------------------------------------------------------
# the axis scan against its mpf reference
# ---------------------------------------------------------------------------


def _reference_scan(fn, a, b, n, max_points):
    """The axis scan in mpmath: grids (xs, vals, errs, crossings, cell),
    each twin value and error carried into an mpf by ldexp."""
    history = []
    while True:
        xs = [a + (b - a) * mpf(i) / (n - 1) for i in range(n)]
        vals, errs = [], []
        for x in xs:
            z = mpc(x, 0)
            got = fn.twin(z)
            if got is None:
                v, e = fn.value_and_error(z)
                vals.append(mpmath.re(v))
                errs.append(e)
            else:
                v, _, e, shift = got
                vals.append(mpmath.ldexp(v.real, shift))
                errs.append(mpmath.ldexp(e + abs(v.real) * 2.0**-mp.prec, shift))
        crossings = [
            i
            for i in range(n - 1)
            if vals[i] != 0
            and vals[i + 1] != 0
            and mpmath.sign(vals[i]) != mpmath.sign(vals[i + 1])
        ]
        yield xs, vals, errs, crossings, (b - a) / (n - 1)
        signs = [mpmath.sign(v) for v in vals if v != 0]
        history.append(sum(1 for s, t in zip(signs, signs[1:]) if s != t))
        if len(history) >= 3 and history[-1] == history[-2] == history[-3]:
            return
        if n >= max_points:
            raise ResolutionError(
                "axis scan of [%s, %s] reached %d points with crossing counts %s"
                % (mpmath.nstr(a, 8), mpmath.nstr(b, 8), n, history[-3:])
            )
        n = int(n * mpf("1.618")) + 1


def _reference_quiet_minima(vals, crossings):
    crossed = set(crossings)
    return [
        i
        for i in range(1, len(vals) - 1)
        if abs(vals[i]) <= min(abs(vals[i - 1]), abs(vals[i + 1]))
        and i - 1 not in crossed
        and i not in crossed
    ]


def _reference_candidates(vals, crossings, cell):
    gate = (max(abs(v) for v in vals) + mpf(10) ** (-mp.dps)) * min(mpf(1), 64 * cell * cell)
    return [i for i in _reference_quiet_minima(vals, crossings) if abs(vals[i]) < gate]


def _grids(scan):
    """The grids a scan yields, and the message of the ResolutionError that
    ended it (None when it settled)."""
    grids = []
    try:
        for grid in scan:
            grids.append(grid)
    except ResolutionError as e:
        return grids, str(e)
    return grids, None


def _assert_scan_matches_reference(make_fn, a, b, n, max_points):
    """Each scan runs on its own fn and plan cache: a plan box is built by
    the first point in it, which takes mpmath, so a shared one would move
    the fallbacks.  Returns the number of grids."""
    with mock.patch.object(measures, "_PLANS", {}):
        ref, ref_end = _grids(_reference_scan(make_fn(), a, b, n, max_points))
    with mock.patch.object(measures, "_PLANS", {}):
        got, got_end = _grids(zeros._golden_scan(make_fn(), a, b, n, max_points))
    assert got_end == ref_end and len(got) == len(ref)
    for (xs, vals, errs, crossings, cell), grid in zip(ref, got):
        assert [x._mpf_ for x in grid.xs] == [x._mpf_ for x in xs]
        assert grid.cell == cell
        assert grid.signs == [int(mpmath.sign(v)) for v in vals]
        assert grid.crossings == crossings
        assert grid.clear == [abs(v) > e for v, e in zip(vals, errs)]
        assert [zeros._magnitude(k)._mpf_ for k in grid.keys] == [abs(v)._mpf_ for v in vals]
        quiet = _reference_quiet_minima(vals, crossings)
        candidates = _reference_candidates(vals, crossings, cell)
        assert zeros._quiet_minima(grid) == quiet
        assert zeros._double_zero_candidates(grid) == candidates
        if quiet:
            deepest = min(candidates or quiet, key=lambda i: abs(vals[i]))
            assert min(candidates or quiet, key=grid.keys.__getitem__) == deepest
    return len(got)


@settings(max_examples=25, deadline=None)
@given(
    convolved=st.booleans(),
    w1=st.floats(0.05, 0.95),
    t=st.floats(0.5, 2),
    lam_unit=st.floats(0, 1),
    lo=st.floats(-6, 4),
    width=st.floats(0.5, 10),
    n=st.integers(9, 65),
    max_points=st.sampled_from([9, 700]),
    digits=st.sampled_from([8, 20, 30]),
)
@example(False, 1 / 3, 1, (math.log(2) + 1) / 2, 0, 8, 65, 700, 20)  # a double zero at pi
def test_property_axis_scan_matches_the_mpf_reference(
    convolved, w1, t, lam_unit, lo, width, n, max_points, digits
):
    """Two atoms at lam in [-1, 1], or smeared with b0 = 10 at lam in
    [0, 9.9] (weights past the float range near b0), at 8 digits (fewer
    than 53 bits: abs() rounds a twin value), 20 and 30; a scan capped at
    9 points ends in a ResolutionError after its first grid."""
    ctx = PrecisionContext(working_digits=digits, target_abs_tol=mpf(10) ** (2 - digits))
    with ctx.workdps(5):
        atoms = symmetric_atoms([(0, 1 - mpf(w1)), (mpf(t), mpf(w1))], ctx)
        measure = convolve_gaussian(atoms, 10, ctx) if convolved else atoms
        lam = mpf(9.9 * lam_unit if convolved else 2 * lam_unit - 1)
        _assert_scan_matches_reference(
            lambda: transform_function(measure, lam, ctx), mpf(lo), mpf(lo + width), n, max_points
        )


@settings(max_examples=15, deadline=None)
@given(
    c=st.sampled_from([0, 1, -1, 0.999]),
    w=st.floats(0.5, 3),
    lo=st.floats(-8, 4),
    width=st.floats(0.5, 12),
    n=st.integers(9, 65),
    digits=st.sampled_from([8, 20]),
)
def test_property_axis_scan_of_a_plain_function_matches_the_mpf_reference(
    c, w, lo, width, n, digits
):
    """cos(w z) - c has no twin, so every point takes mpmath; c = +-1 makes
    double zeros."""
    ctx = PrecisionContext(working_digits=digits, target_abs_tol=mpf(10) ** (2 - digits))
    with ctx.workdps(5):
        w, c = mpf(w), mpf(c)
        _assert_scan_matches_reference(
            lambda: as_analytic(lambda z: mpmath.cos(w * z) - c), mpf(lo), mpf(lo + width), n, 700
        )


def test_axis_scan_with_a_root_on_a_grid_point_matches_the_mpf_reference():
    # the middle point of [-5, 5] on an odd grid is exactly 0
    ctx = ctx_light()
    with ctx.workdps(5):
        fn = as_analytic(lambda z: z * (z * z - 2) * (z - 3) ** 2)
        assert _assert_scan_matches_reference(lambda: fn, mpf(-5), mpf(5), 65, zeros.AXIS_MAX_POINTS) >= 3
        (first, *_), _ = _grids(zeros._golden_scan(fn, mpf(-5), mpf(5), 65, zeros.AXIS_MAX_POINTS))
        assert first.signs[32] == 0 and first.keys[32] == zeros._ZERO_KEY


def test_axis_scan_of_phi_matches_the_mpf_reference():
    # the first point in each plan box builds the box and takes mpmath
    ctx = ctx_light()
    with ctx.workdps(5):
        phi = named_density("RiemannPhi", ctx)
    fallbacks, twin = [], measures.TransformFunction.twin

    def recorded(self, z, deriv=False):
        got = twin(self, z, deriv)
        fallbacks.append(got is None)
        return got

    with mock.patch.object(measures.TransformFunction, "twin", recorded), ctx.workdps(5):
        _assert_scan_matches_reference(
            lambda: transform_function(phi, 0, ctx), mpf(0), mpf(16), 65, zeros.AXIS_MAX_POINTS
        )
    assert any(fallbacks) and not all(fallbacks)
