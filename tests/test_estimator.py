"""Threshold scans and bisection, zero-table ingestion, close-pair bounds.

The two-atom cosine measure (threshold log 2) and the smeared three-atom
family (closed-form threshold b0 - b0^2/(b0 + log 3/2)) pin the bisection;
synthetic arithmetic tables pin the interaction sum g_k against a
brute-force oracle; the committed 100-ordinate table exercises the
close-pair records end to end.
"""

import pathlib
from dataclasses import replace
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from dbnlab import estimator as est
from dbnlab import zeros
from dbnlab.measures import convolve_gaussian, named_density, symmetric_atoms
from dbnlab.precision import BracketError, DomainError, PrecisionContext, SchemaError
from dbnlab.zeros import Rectangle, RealityVerdict

DATA = pathlib.Path(__file__).parent / "data"


def ctx30():
    return PrecisionContext(working_digits=30, target_abs_tol=mpf("1e-15"))


def ctx_light():
    return PrecisionContext(working_digits=20, target_abs_tol=mpf("1e-10"))


def two_atom_cosine():
    return symmetric_atoms([(mpf(0), mpf(2) / 3), (mpf(1), mpf(1) / 3)])


def smeared_three_atom(b0, ctx):
    base = symmetric_atoms([(mpf(0), mpf(3) / 5), (mpf(1), mpf(2) / 5)])
    return convolve_gaussian(base, mpf(b0), ctx)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


class TestScanLambda:
    def test_two_atom_grid(self):
        ctx = ctx30()
        with ctx.workdps(0):
            out = est.scan_lambda(
                two_atom_cosine(),
                [mpf("0.5"), mpf("0.69"), mpf("0.70"), mpf(1)],
                Rectangle.make(-20, 20, -3, 3),
                ctx,
            )
            assert [r.all_real for r in out] == [False, False, True, True]
            assert all(r.entire for r in out)
            assert all(r.warning is None for r in out)

    def test_gaussian_grid_all_true(self):
        ctx = ctx30()
        with ctx.workdps(0):
            g = named_density("Gaussian", ctx, b0=1)
            out = est.scan_lambda(
                g, [-5, 0, mpf("0.9")], Rectangle.make(-5, 5, -2, 2), ctx
            )
        assert [r.all_real for r in out] == [True, True, True]

    def test_degenerate_grid_all_false(self):
        ctx = ctx30()
        with ctx.workdps(0):
            c6 = named_density("Case6", ctx)
            out = est.scan_lambda(
                c6, [0, mpf("0.5"), mpf("0.9")], Rectangle.make(-5, 5, -3, 3), ctx
            )
        assert [r.all_real for r in out] == [False, False, False]

    def test_outside_entireness_marked_not_entire(self):
        ctx = ctx30()
        with ctx.workdps(0):
            g = named_density("Gaussian", ctx, b0=1)
            out = est.scan_lambda(
                g, [mpf("0.5"), mpf(1), mpf(2)], Rectangle.make(-5, 5, -2, 2), ctx
            )
            assert [r.entire for r in out] == [True, False, False]
            assert out[1].all_real is None

    def test_non_finite_multiplier_marked_not_entire(self):
        ctx = ctx_light()
        with ctx.workdps(0):
            lams = [mpf("nan"), mpf("inf"), mpf("-inf")]
            out = est.scan_lambda(two_atom_cosine(), lams, Rectangle.make(-8, 8, -2, 2), ctx)
        assert [r.entire for r in out] == [False, False, False]
        assert all(r.verdict is None for r in out)

    def test_monotonicity_violation_flagged(self, monkeypatch):
        # a true-then-false pattern cannot come from an honest verdict, so
        # fabricate one to check the surveillance logic
        # dyadic grid values are exact at every precision, so dict lookup
        # survives the context's working-digits switch
        fake = {
            mpf("0.5"): True,
            mpf("0.75"): False,
            mpf("0.875"): True,
        }

        def fake_verify(measure, lam, window, ctx, **kw):
            return RealityVerdict(window=window, all_real=fake[lam])

        monkeypatch.setattr(est, "verify_all_real", fake_verify)
        ctx = ctx30()
        with ctx.workdps(0):
            out = est.scan_lambda(
                two_atom_cosine(),
                [mpf("0.5"), mpf("0.75"), mpf("0.875")],
                Rectangle.make(-5, 5, -1, 1),
                ctx,
            )
            assert out[0].warning is None
            assert out[1].warning is not None
            assert "resolution" in out[1].warning
            assert out[2].warning is None


# ---------------------------------------------------------------------------
# bisection
# ---------------------------------------------------------------------------


class TestBisectLambda:
    def test_two_atom_threshold(self):
        ctx = ctx30()
        with ctx.workdps(0):
            got = est.bisect_lambda(
                two_atom_cosine(),
                0,
                1,
                Rectangle.make(-8, 8, -2, 2),
                mpf("1e-6"),
                ctx,
            )
            assert abs(got - mpmath.log(2)) < mpf("1e-6")

    def test_bracket_independence(self):
        ctx = ctx30()
        with ctx.workdps(0):
            w = Rectangle.make(-8, 8, -2, 2)
            tol = mpf("1e-5")
            a = est.bisect_lambda(two_atom_cosine(), 0, 1, w, tol, ctx)
            b = est.bisect_lambda(
                two_atom_cosine(), mpf("0.3"), mpf("0.9"), w, tol, ctx
            )
            assert abs(a - b) < 2 * tol

    def test_smeared_family_matches_closed_form(self):
        # spec of the family: flip at b0 - b0^2/(b0 + log(3/2))
        ctx = ctx30()
        with ctx.workdps(0):
            b0 = mpf(10)
            conv = smeared_three_atom(b0, ctx)
            closed = b0 - b0 * b0 / (b0 + mpmath.log(mpf(3) / 2))
            got = est.bisect_lambda(
                conv, 0, mpf("9.9"), Rectangle.make(-8, 8, -2, 2), mpf("1e-5"), ctx
            )
            assert abs(got - closed) < mpf("1e-5")

    @pytest.mark.parametrize("lo, hi", [(0, "inf"), ("-inf", 1)])
    def test_non_finite_bracket_end_is_refused(self, lo, hi):
        ctx = ctx_light()
        with ctx.workdps(0):
            with pytest.raises(BracketError, match="entireness range"):
                est.bisect_lambda(
                    two_atom_cosine(), mpf(lo), mpf(hi), Rectangle.make(-8, 8, -2, 2),
                    mpf("1e-3"), ctx,
                )

    def test_nan_tolerance_is_refused(self):
        ctx = ctx_light()
        with ctx.workdps(0):
            with pytest.raises(DomainError):
                est.bisect_lambda(
                    two_atom_cosine(), 0, 1, Rectangle.make(-8, 8, -2, 2), mpf("nan"), ctx
                )

    def test_always_real_measure_invalid_bracket(self):
        ctx = ctx30()
        with ctx.workdps(0):
            cosine = symmetric_atoms([(mpf(1), mpf(1))])
            with pytest.raises(BracketError):
                est.bisect_lambda(
                    cosine, -5, 1, Rectangle.make(-8, 8, -2, 2), mpf("1e-6"), ctx
                )


def recording(edit=lambda v: v):
    """The lambdas probed, and a patch of est.verify_all_real that records
    them and passes each verdict through edit on its way back."""
    lams, real = [], est.verify_all_real

    def verify(measure, lam, window, ctx, **kw):
        lams.append(lam)
        return edit(real(measure, lam, window, ctx, **kw))

    return lams, mock.patch.object(est, "verify_all_real", verify)


def verdict_budget(lo, hi, tol):
    """ceil(log2((hi - lo) / tol)) + 3: the two bracket ends, one verdict
    per halving, and the ITP slack of one."""
    n = 0
    while tol * 2**n < hi - lo:
        n += 1
    return n + 3


def two_atom(w0, w1, t):
    """{0: w0, +-t: w1}; H = w0 + w1 e^{lam t^2} cos(t z) has only real
    zeros exactly from lam* = ln(w0/w1) / t^2 on."""
    return symmetric_atoms([(mpf(0), mpf(w0)), (mpf(t), mpf(w1))])


class TestHeatFlowSteps:
    @settings(max_examples=8, deadline=None)
    @given(
        ratio=st.floats(1.2, 5),
        t=st.floats(0.6, 1.6),
        below=st.floats(0.05, 1),
        above=st.floats(0.05, 1),
        digits=st.floats(3, 7),
    )
    def test_property_two_atom_threshold_within_budget(self, ratio, t, below, above, digits):
        # the window holds only the zeros at +-pi/t (the next sit at 3 pi/t),
        # and at lo, cosh(t y) = e^{(lam* - lo) t^2} <= e^1.1 keeps them
        # below its top edge.  The bracket ends are short decimals, so no
        # midpoint lands on the double zero at lam* itself.
        ctx = ctx_light()
        with ctx.workdps(0):
            ratio, t = mpf("%.3f" % ratio), mpf("%.3f" % t)
            w1 = 1 / (1 + ratio)
            exact = mpmath.log(ratio) / t**2
            lo = mpf(mpmath.nstr(exact - below / t**2, 3))
            hi = mpf(mpmath.nstr(exact + above / t**2, 3))
            tol = mpf(10) ** -mpf("%.2f" % digits)
            window = Rectangle.make(-2 * mpmath.pi / t, 2 * mpmath.pi / t, -3 / t, 3 / t)
            lams, patch = recording()
            with patch:
                got = est.bisect_lambda(two_atom(1 - w1, w1, t), lo, hi, window, tol, ctx)
            assert abs(got - exact) <= tol
            assert len(lams) <= verdict_budget(lo, hi, tol)

    def test_located_offenders_give_heights(self, monkeypatch):
        # with the Kantorovich certificate off, every false verdict is
        # located and reports the located offender below the axis; its
        # height still steps the search, so the first probe after the two
        # bracket ends is lo + y^2/2 pulled in by ITP, not the midpoint
        monkeypatch.setattr(zeros, "_certify_minimum", lambda fn, grid, window, tol: 0)
        located = []

        def offender(v):
            if not v.all_real:
                located.append(v.offender_radius is None and v.worst_offender.imag < 0)
            return v

        ctx = ctx_light()
        with ctx.workdps(0):
            lo, hi, tol = mpf(0), mpf(1), mpf("1e-4")
            lams, patch = recording(offender)
            with patch:
                got = est.bisect_lambda(
                    two_atom_cosine(), lo, hi, Rectangle.make(-8, 8, -2, 2), tol, ctx
                )
            assert located and all(located)
            assert abs(got - mpmath.log(2)) <= tol
            assert len(lams) <= verdict_budget(lo, hi, tol)
            assert lams[:2] == [hi, lo] and lams[2] > (lo + hi) / 2

    @pytest.mark.parametrize("factor", ["0.01", "30"])
    def test_wrong_offender_height_keeps_answer_and_budget(self, factor):
        def mislead(v):
            z = v.worst_offender
            if z is None:
                return v
            return replace(v, worst_offender=mpc(mpmath.re(z), mpmath.im(z) * mpf(factor)))

        ctx = ctx_light()
        with ctx.workdps(0):
            tol = mpf("1e-6")
            lams, patch = recording(mislead)
            with patch:
                got = est.bisect_lambda(
                    two_atom_cosine(), 0, 1, Rectangle.make(-8, 8, -2, 2), tol, ctx
                )
            assert abs(got - mpmath.log(2)) < tol
            assert len(lams) <= verdict_budget(mpf(0), mpf(1), tol)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


class TestIngestZeroTable:
    def test_basic(self):
        t = est.ingest_zero_table("14.134725\n21.022040\n25.010858\n")
        assert len(t) == 3
        assert abs(t.ordinates[0] - mpf("14.134725")) < mpf("1e-12")

    def test_comments_and_blanks_skipped(self):
        t = est.ingest_zero_table("# header\n\n14.1\n")
        assert len(t) == 1

    def test_non_ascending_rejected_with_line(self):
        with pytest.raises(SchemaError) as e:
            est.ingest_zero_table("21.0\n14.1\n")
        assert "line 2" in str(e.value)

    def test_parse_failure_names_line(self):
        with pytest.raises(SchemaError) as e:
            est.ingest_zero_table("14.1\nnot-a-number\n")
        assert "line 2" in str(e.value)

    def test_nonpositive_rejected(self):
        with pytest.raises(SchemaError):
            est.ingest_zero_table("-3.0\n")

    @pytest.mark.parametrize(
        "text, line", [("1\n2\nnan\n3\ninf\n", 3), ("1\n2\ninf\n", 3), ("-inf\n", 1)]
    )
    def test_non_finite_rejected_with_line(self, text, line):
        # nan passes every comparison check, and inf would end an ascending
        # table that the close-pair sweep bisects
        with pytest.raises(SchemaError, match="line %d: ordinate .* is not finite" % line):
            est.ingest_zero_table(text)

    def test_file_like_input(self):
        with open(DATA / "xi_zeros_100.txt") as f:
            t = est.ingest_zero_table(f)
        assert len(t) == 100


# ---------------------------------------------------------------------------
# close-pair records
# ---------------------------------------------------------------------------


def brute_force_g(xs, k, radius):
    """Independent double-loop oracle over the symmetrized ordinate list."""
    signed = [x for x in xs] + [-x for x in xs]
    xk, xk1 = xs[k - 1], xs[k]
    total = mpf(0)
    for x in signed:
        if x in (xk, xk1):
            continue
        if abs(x - xk) > radius:
            continue
        total += (xk - x) ** -2 + (xk1 - x) ** -2
    return total


def plain_loop_lehmer(xs, k, radius):
    """g_k and lambda_k of the loop over all 2n signed ordinates, in the order
    j = 1..n, +x_j before -x_j: the reference the narrowed sweep must match
    bit for bit."""
    xk, xk1 = xs[k - 1], xs[k]
    gap, g = xk1 - xk, mpf(0)
    for j in range(1, len(xs) + 1):
        for x in (xs[j - 1], -xs[j - 1]):
            if x == xk or x == xk1:
                continue
            if abs(x - xk) > radius:
                continue
            g += 1 / ((xk - x) ** 2) + 1 / ((xk1 - x) ** 2)
    if g == 0:
        raise DomainError("no term within the radius")
    bracket = 1 - mpf(5) / 4 * gap * gap * g
    if bracket < 0:
        raise DomainError("negative bracket")
    return g, (bracket ** (mpf(4) / 5) - 1) / (8 * g)


def _outcome(compute):
    try:
        return compute()
    except DomainError as e:  # a negative bracket, or no term within the radius
        return type(e)


class TestLehmerLowerBound:
    def test_arithmetic_table_matches_oracle(self):
        ctx = ctx30()
        with ctx.workdps(0):
            xs = tuple(mpf(10 * j) for j in range(1, 26))
            t = est.ZeroTable(xs)
            # the wide arithmetic pair is outside the formula domain, so
            # compare g_k through the brute-force oracle and confirm the
            # domain failure is reported rather than clamped
            expected = brute_force_g(xs, 5, mpf(200))
            with pytest.raises(DomainError):
                est.lehmer_lower_bound(t, 5, 200, ctx)
            # recompute g through a table whose pair is genuinely close so
            # the record is defined, and check the oracle there as well
            close = tuple(
                sorted(list(mpf(10 * j) for j in range(1, 26)) + [mpf("50.1")])
            )
            t2 = est.ZeroTable(close)
            k2 = close.index(mpf(50)) + 1
            rec = est.lehmer_lower_bound(t2, k2, 200, ctx)
            assert abs(rec.g_k - brute_force_g(close, k2, mpf(200))) < mpf("1e-12")
            assert rec.lambda_k < 0
            assert expected > 0  # oracle itself sane

    def test_smaller_gap_pulls_bound_toward_zero(self):
        ctx = ctx30()
        with ctx.workdps(0):

            def table(gap):
                pair = [mpf(55) - gap / 2, mpf(55) + gap / 2]
                rest = [mpf(v) for v in (10, 20, 30, 40, 70, 80, 90, 100)]
                return est.ZeroTable(tuple(sorted(rest + pair)))

            wide = est.lehmer_lower_bound(table(mpf(1)), 5, 200, ctx)
            tight = est.lehmer_lower_bound(table(mpf("0.1")), 5, 200, ctx)
            assert wide.lambda_k < tight.lambda_k < 0

    def test_radius_doubling_within_tail_allowance(self):
        # push a close pair into a long arithmetic background so the record
        # is defined, then check the truncated sum has settled: growing the
        # radius from r to 2r moves g_k by less than 4 * density / r
        ctx = ctx30()
        with ctx.workdps(0):
            xs = sorted(
                [mpf(10 * j) for j in range(1, 201)] + [mpf("1000.1")]
            )
            t = est.ZeroTable(tuple(xs))
            k = xs.index(mpf(1000)) + 1
            r1 = est.lehmer_lower_bound(t, k, 300, ctx)
            r2 = est.lehmer_lower_bound(t, k, 600, ctx)
            density = mpf(1) / 10
            assert abs(r2.g_k - r1.g_k) < 4 * density / 300
            assert abs(r1.g_k - brute_force_g(xs, k, mpf(300))) < mpf("1e-12")

    def test_committed_table_defined_records(self):
        ctx = ctx30()
        with ctx.workdps(0):
            with open(DATA / "xi_zeros_100.txt") as f:
                table = est.ingest_zero_table(f.read(), ctx=ctx)
            defined = []
            for k in range(1, len(table)):
                try:
                    defined.append(est.lehmer_lower_bound(table, k, 100, ctx))
                except DomainError:
                    continue
            assert defined, "expected at least one close pair in 100 ordinates"
            assert all(rec.lambda_k <= 0 for rec in defined)
            # determinism across a repeat run
            again = est.lehmer_lower_bound(table, defined[0].k, 100, ctx)
            assert abs(again.lambda_k - defined[0].lambda_k) < mpf("1e-9")

    def test_narrowed_sweep_is_bit_identical_to_the_plain_loop(self):
        # dyadic ordinates make every |x_j - x_k| and x_j + x_k exact: at k = 6
        # (the close pair 7, 7.25) the radii 3 and 9.5 land exactly on the
        # distances |4 - 7| and |-2.5 - 7|, and the exact test keeps both terms
        ctx = ctx_light()
        with ctx.workdps():
            dyadic = tuple(mpf(x) for x in ("0.75", "1", "2.5", "4", "5.5", "7", "7.25", "12"))
            table = est.ingest_zero_table((DATA / "xi_zeros_100.txt").read_text(), ctx=ctx)
            xs = table.ordinates
            cases = [(dyadic, r) for r in ("3", "9.5", "0.25", "100")]
            # at k = 34 the radius x_34 - x_1 keeps x_1, though x_34 - radius
            # rounds to a number above x_1
            assert xs[33] - (xs[33] - xs[0]) > xs[0]
            cases += [(xs, r) for r in (xs[33] - xs[0], 2 * xs[3], "5", "100")]
        defined = 0
        for ordinates, radius in cases:
            for k in range(1, len(ordinates)):
                with ctx.workdps():
                    want = _outcome(lambda: plain_loop_lehmer(ordinates, k, mpf(radius)))

                def narrowed():
                    rec = est.lehmer_lower_bound(est.ZeroTable(ordinates), k, radius, ctx)
                    return rec.g_k, rec.lambda_k

                assert _outcome(narrowed) == want, (k, radius)
                defined += isinstance(want, tuple)
        assert defined >= 20
        with ctx.workdps():
            for radius in ("3", "9.5"):
                on, inside = (plain_loop_lehmer(dyadic, 6, mpf(radius) - d)[0] for d in (0, 1e-3))
                assert on > inside

    @settings(max_examples=120, deadline=None)
    @given(
        raw=st.lists(
            st.one_of(
                st.integers(1, 1600).map(lambda m: (m, 8)),
                st.integers(10**17, 2 * 10**20).map(lambda m: (m, 10**18)),
            ),
            min_size=4,
            max_size=40,
        ),
        light=st.booleans(),
        data=st.data(),
    )
    def test_property_sweep_is_bit_identical_to_the_plain_loop(self, raw, light, data):
        # half the ordinates are multiples of 1/8, so their distances are
        # exact; the others are 40-digit decimals, finer than either context,
        # so negations and differences round.  A radius drawn as a signed
        # ordinate's computed distance |+-x_j - x_k| puts a term exactly on
        # the boundary of the exact test.
        with mp.workdps(40):
            xs = tuple(sorted({mpf(m) / q for m, q in raw}))
        assume(len(xs) >= 4)
        k = data.draw(st.integers(1, len(xs) - 1), label="k")
        ctx = ctx_light() if light else ctx30()
        with ctx.workdps():
            if data.draw(st.booleans(), label="on a distance"):
                j = data.draw(st.integers(0, len(xs) - 1), label="j")
                x = data.draw(st.sampled_from([xs[j], -xs[j]]), label="x")
                radius = abs(x - xs[k - 1])
            else:
                radius = mpf(data.draw(st.floats(1e-3, 500) | st.just(float("inf"))))
            want = _outcome(lambda: plain_loop_lehmer(xs, k, mpf(radius)))

        def narrowed():
            rec = est.lehmer_lower_bound(est.ZeroTable(xs), k, radius, ctx)
            return rec.g_k, rec.lambda_k

        got = _outcome(narrowed)
        if isinstance(want, tuple):
            assert isinstance(got, tuple), (k, radius)
            assert [v._mpf_ for v in got] == [v._mpf_ for v in want], (k, radius)
        else:
            assert got == want, (k, radius)

    def test_sweep_is_bit_identical_where_libmp_rounds_by_shortcut(self):
        # - the close pair 100, 100 + 2^-60 has a neighbour 2^-52 away, whose
        #   term ~2^105 meets terms ~0.1 in sums that span over 100 bits,
        #   where libmp perturbs instead of aligning; the terms ~1e-50 of the
        #   ordinate 1e25 (radius inf) lie past any shift a sum makes
        # - 50-digit ordinates at ctx_light: negations and differences round
        # - in the second table a = 110 + 2^-64 + 2^-150 sits 2^-150 above a
        #   rounding midpoint at ctx_light, and x = 2^-100 + 2^-260 lies over
        #   100 exponent bits and over prec + 4 bits below it: libmp rounds
        #   a - x up, as if x were a unit past a's last bit, where the exact
        #   difference rounds down, and g_2 shows it
        with mp.workprec(400):
            two = mpf(2)
            pair = [mpf(100), 100 + two**-60, 100 + two**-60 + two**-52]
            wide = sorted(
                [mpf(v) for v in ("97", "98.5", "100.75", "102", "1e25")]
                + pair
                + [
                    mpf("14.134725141734693790457251983562470270784257115699"),
                    mpf("21.022039638771554992628479593896902777334340524903"),
                    mpf("25.010857580145688763213790992562821818659549672558"),
                ]
            )
            midpoint = [two**-100 + two**-260, 110 + two**-64 + two**-150, mpf(111)]
        close = wide.index(pair[0]) + 1
        shortcut_sums = 0
        for ctx in (ctx_light(), ctx30()):
            for xs in (wide, midpoint):
                for radius in ("inf", "200", "1.5"):
                    for k in range(1, len(xs)):
                        with ctx.workdps():
                            want = _outcome(lambda: plain_loop_lehmer(xs, k, mpf(radius)))

                        def narrowed():
                            rec = est.lehmer_lower_bound(est.ZeroTable(tuple(xs)), k, radius, ctx)
                            return rec.g_k, rec.lambda_k

                        got = _outcome(narrowed)
                        if isinstance(want, tuple):
                            assert isinstance(got, tuple), (k, radius)
                            assert [v._mpf_ for v in got] == [v._mpf_ for v in want], (k, radius)
                        else:
                            assert got == want, (k, radius)
                        if xs is wide and k == close:
                            shortcut_sums += want[0] > mpf(2) ** 104
        assert shortcut_sums == 6

    def test_nan_radius_is_refused_and_inf_takes_the_whole_table(self):
        ctx = ctx_light()
        table = est.ingest_zero_table((DATA / "xi_zeros_100.txt").read_text(), ctx=ctx)
        with pytest.raises(DomainError, match="truncation_radius"):
            est.lehmer_lower_bound(table, 34, "nan", ctx)
        whole = est.lehmer_lower_bound(table, 34, "inf", ctx)
        # every signed ordinate lies within x_34 + x_100 < 348 of x_34
        assert whole.g_k == est.lehmer_lower_bound(table, 34, 500, ctx).g_k
        assert whole.truncation_radius == mpf("inf")
        with ctx.workdps():
            assert whole.g_k == plain_loop_lehmer(table.ordinates, 34, mpf("inf"))[0]

    def test_float_and_int_ordinates_read_as_their_exact_values(self):
        ctx = ctx_light()
        floats = (1.0, 2.0, 3.0, 5.0, 5.125, 7.0, 8.0)
        with ctx.workdps():
            want = est.lehmer_lower_bound(est.ZeroTable(tuple(map(mpf, floats))), 4, 100, ctx)
        for xs in (floats, (1, 2, 3, 5, 5.125, 7, 8)):
            got = est.lehmer_lower_bound(est.ZeroTable(xs), 4, 100, ctx)
            assert (got.gap, got.g_k, got.lambda_k) == (want.gap, want.g_k, want.lambda_k)

    def test_no_term_within_the_radius_is_a_domain_error(self):
        # g_k = 0 would divide the bound by zero
        ctx = ctx30()
        with ctx.workdps(0):
            t = est.ZeroTable((mpf("0.75"), mpf(1), mpf("2.5"), mpf(4)))
        with pytest.raises(DomainError, match=r"k=1: .* radius 0\.25"):
            est.lehmer_lower_bound(t, 1, "0.25", ctx)

    def test_out_of_range_k(self):
        ctx = ctx30()
        with ctx.workdps(0):
            t = est.ZeroTable((mpf(1), mpf(2)))
            with pytest.raises(DomainError):
                est.lehmer_lower_bound(t, 2, 10, ctx)


class TestStripHalfwidth:
    def test_values(self):
        ctx = ctx30()
        with ctx.workdps(0):
            assert est.debruijn_strip_halfwidth(mpf(1) / 2, mpf(1) / 4, ctx) == 0
            assert est.debruijn_strip_halfwidth(mpf(1) / 2, 0, ctx) == mpf(1) / 2
            got = est.debruijn_strip_halfwidth(0, -3, ctx)
            assert abs(got - mpmath.sqrt(6)) < mpf("1e-25")

    def test_two_atom_zero_height(self):
        # H = w0 + w1 e^{lam eps^2} cos(eps z) has its zeros at height
        # acosh((w0/w1) e^{-lam eps^2})/eps, which is Delta at lam = 0
        ctx = ctx30()
        with ctx.workdps(0):
            eps, ratio, lam = mpf("0.01"), mpf("1.0001"), mpf("0.9")

            def height(b):
                return mpmath.acosh(ratio * mpmath.exp(-b * eps * eps)) / eps

            true = height(lam)
            assert abs(true - mpf("0.4471")) < mpf("1e-4")
            got = est.debruijn_strip_halfwidth(height(0), lam, ctx)
            assert true <= got < true + mpf("1e-3")

    def test_negative_delta_rejected(self):
        ctx = ctx30()
        with ctx.workdps(0):
            with pytest.raises(DomainError):
                est.debruijn_strip_halfwidth(-1, 0, ctx)
