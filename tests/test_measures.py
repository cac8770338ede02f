"""Tests for the measure data model: tail sets, multipliers, convolution,
and the per-kind transform dispatch.

Closed forms are cross-checked against the adaptive quadrature route
wherever the measure carries a pointwise density, which keeps every exact
formula honest against an independent evaluation path.
"""

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

from dbnlab import (
    DomainError,
    EntirenessError,
    PrecisionContext,
    apply_gaussian_multiplier,
    convolve_gaussian,
    eval_H,
    eval_H_parts,
    named_density,
    partial_gaussian_mass,
    symmetric_atoms,
    tail_set,
    transform_function,
)
from dbnlab.cli import parse_measure_spec
from dbnlab.measures import _KINDS, _case8_weight
from dbnlab import QuadratureError, SchemaError, TailBoundError, measures, numerics

CTX = PrecisionContext()


def case8_atoms(tol_digits, growth=0, lam=0):
    """Case 8's atoms (k, w_k e^{lam k^2}) up to the first k > 3 whose term
    times e^{growth k} is below 10^-(tol_digits+5), at the current precision."""
    tol = mpf(10) ** (-(tol_digits + 5))
    atoms, k = [], 0
    while True:
        w = _case8_weight(k, mp.dps) * mpmath.exp(lam * k * k)
        if k > 3 and w * mpmath.exp(growth * k) < tol:
            return atoms
        atoms.append((mpf(k), w))
        k += 1


def reference_parts(atoms, lam, z, parts=("value", "deriv", "moment2")):
    """The transform of atoms (t, w) as one cos and one sin per atom.

    The route the compiled evaluators replaced, kept here as their reference.
    """
    out = {p: mpc(0) for p in parts}
    for t, w in atoms:
        wl = w * mpmath.exp(lam * t * t)
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
    return out


class TestTailSets:
    def test_atoms_all_reals(self):
        m = symmetric_atoms([(0, 1), (2, mpf("0.5"))])
        assert tail_set(m).shape == "AllReals"

    def test_gaussian_open(self):
        ts = tail_set(named_density("Gaussian", CTX, b0=3))
        assert ts.shape == "OpenUpTo" and ts.b0 == 3
        assert ts.contains(mpf("2.99")) and not ts.contains(mpf(3))

    def test_entire_density_kinds(self):
        for m in (
            named_density("RiemannPhi", CTX),
            named_density("ExpPower", CTX, q=2),
            named_density("CoshExp", CTX, a=1),
            named_density("PolyaQuartic", CTX, a=1, b=0, c=1, q=1),
            named_density("DBNClass", CTX, K=1, m=0, alpha=2, beta=-1, a_list=()),
            named_density("SexticField", CTX, a=1, b=0, c=0),
        ):
            assert tail_set(m).shape == "AllReals"

    def test_dbnclass_without_quartic_term(self):
        m = named_density(
            "DBNClass", CTX, K=1, m=1, alpha=0, beta=2, a_list=(1, 2)
        )
        ts = tail_set(m)
        assert ts.shape == "OpenUpTo"
        assert abs(ts.b0 - (2 + 1 + mpf("0.25"))) < mpf("1e-40")

    def test_slow_decay_kinds_closed_endpoint(self):
        # at b equal to the Gaussian rate the leftover factor is still
        # integrable, so the endpoint itself belongs to the set
        for m in (
            named_density("AbsExpGaussian", CTX, a=1, lam=1),
            named_density("PolyDecayGaussian", CTX, theta=1, lam=1),
        ):
            ts = tail_set(m)
            assert ts.shape == "ClosedUpTo" and ts.b0 == 1
            assert ts.contains(mpf(1)) and not ts.contains_interior(mpf(1))

    def test_special_kinds(self):
        assert tail_set(named_density("Case6", CTX)).shape == "OpenUpTo"
        ts8 = tail_set(named_density("Case8", CTX))
        assert ts8.shape == "ClosedUpTo" and ts8.b0 == 0

    def test_convolution_and_multiplier_shift(self):
        base = symmetric_atoms([(0, mpf(3) / 5), (1, mpf(2) / 5)])
        conv = convolve_gaussian(base, 5, CTX)
        assert tail_set(conv).shape == "OpenUpTo"
        assert tail_set(conv).b0 == 5
        shifted = apply_gaussian_multiplier(conv, mpf(2), ctx=CTX)
        assert tail_set(shifted).b0 == 3
        neg = apply_gaussian_multiplier(named_density("RiemannPhi", CTX), mpf(-1), ctx=CTX)
        assert tail_set(neg).shape == "AllReals"

    def test_partial_mass_watches_the_boundary(self):
        # below the rate the partial masses settle, above they blow up
        g = named_density("Gaussian", CTX, b0=1)
        lo5 = partial_gaussian_mass(g, mpf("0.8"), 5, CTX)
        lo8 = partial_gaussian_mass(g, mpf("0.8"), 8, CTX)
        hi5 = partial_gaussian_mass(g, mpf("1.2"), 5, CTX)
        hi8 = partial_gaussian_mass(g, mpf("1.2"), 8, CTX)
        assert abs(lo8 - lo5) < mpf("1e-1")
        assert hi8 > hi5 * mpf(100)


class TestMultiplier:
    def test_atoms_scale_and_normalize(self):
        with mp.workdps(60):
            m = symmetric_atoms([(1, 1)])
            lam = mpf("0.3")
            scaled = apply_gaussian_multiplier(m, lam, ctx=CTX)
            assert abs(scaled.atoms[0][1] - mpmath.exp(lam)) < mpf("1e-45")
            normed = apply_gaussian_multiplier(m, lam, normalize=True, ctx=CTX)
            assert abs(normed.atoms[0][1] - 1) < mpf("1e-45")

    def test_gaussian_rate_shift(self):
        g = named_density("Gaussian", CTX, b0=1)
        shifted = apply_gaussian_multiplier(g, mpf("0.25"), normalize=True, ctx=CTX)
        assert shifted.density_kind == "Gaussian"
        assert shifted.param("b0") == mpf("0.75")

    def test_multipliers_compose_additively(self):
        with mp.workdps(60):
            phi = named_density("RiemannPhi", CTX)
            once = apply_gaussian_multiplier(
                apply_gaussian_multiplier(phi, mpf("-0.4"), ctx=CTX),
                mpf("0.1"),
                ctx=CTX,
            )
            assert once.kind == "MultipliedMeasure"
            assert once.base is phi
            assert abs(once.lam - mpf("-0.3")) < mpf("1e-45")
            direct = eval_H(phi, once.lam, mpf(2), CTX)
            wrapped = eval_H(once, mpf(0), mpf(2), CTX)
            assert abs(direct.value - wrapped.value) < mpf("1e-29")

    def test_normalize_outside_range_rejected(self):
        g = named_density("Gaussian", CTX, b0=1)
        with pytest.raises(EntirenessError):
            apply_gaussian_multiplier(g, mpf(1), normalize=True, ctx=CTX)

    def test_normalized_wrapper_has_unit_mass(self):
        phi = named_density("RiemannPhi", CTX)
        normed = apply_gaussian_multiplier(phi, mpf("-0.5"), normalize=True, ctx=CTX)
        with mp.workdps(60):
            h0 = eval_H(normed, mpf(0), mpf(0), CTX)
            assert abs(h0.value - 1) < mpf("1e-28")


class TestAtomTransforms:
    def test_two_point_cosine(self):
        m = symmetric_atoms([(1, 1)])
        with mp.workdps(60):
            for z in (mpf(0), mpf("1.3"), mpc("0.4", "0.7")):
                got = eval_H(m, mpf("0.2"), z, CTX).value
                want = mpmath.exp(mpf("0.2")) * mpmath.cos(z)
                assert abs(got - want) < mpf("1e-40")

    def test_origin_atom_constant(self):
        with mp.workdps(60):
            m = symmetric_atoms([(0, mpf(2) / 3), (1, mpf(1) / 3)])
            b = mpf("0.5")
            got = eval_H(m, b, mpf(0), CTX).value
            want = mpf(2) / 3 + mpmath.exp(b) / 3
            assert abs(got - want) < mpf("1e-40")

    def test_parts_match_finite_differences(self):
        # H' and -H'' of every closed form against central differences of H
        base = symmetric_atoms([(0, mpf(3) / 5), (1, mpf(2) / 5)])
        cases = (
            (symmetric_atoms([(0, 1), (mpf("0.7"), 2), (2, mpf("0.3"))]), mpf("-0.1")),
            (named_density("Gaussian", CTX, b0=2), mpf("-0.1")),
            (convolve_gaussian(base, 5, CTX), mpf(2)),
            (named_density("Case6", CTX), mpf("0.25")),
            (named_density("Case8", CTX), mpf(0)),
            (named_density("Case8", CTX), mpf("-0.25")),
        )
        for m, lam in cases:
            label = "%s at lam=%s" % (m.density_kind or m.kind, lam)
            with mp.workdps(60):
                z = mpc("0.9", "0.2")
                h = mpf("1e-12")
                parts = eval_H_parts(m, lam, z, CTX, ("value", "deriv", "moment2"))
                plus = eval_H(m, lam, z + h, CTX).value
                minus = eval_H(m, lam, z - h, CTX).value
                fd = (plus - minus) / (2 * h)
                assert abs(parts["deriv"].value - fd) < mpf("1e-22"), label
                fd2 = (plus - 2 * parts["value"].value + minus) / (h * h)
                assert abs(parts["moment2"].value + fd2) < mpf("1e-12"), label


class TestConvolution:
    def test_origin_atom_collapses_to_gaussian(self):
        conv = convolve_gaussian(symmetric_atoms([(0, 1)]), mpf(2), CTX)
        assert conv.kind == "NamedDensity" and conv.density_kind == "Gaussian"
        assert conv.param("b0") == 2

    def test_closed_form_against_quadrature(self):
        base = symmetric_atoms([(0, mpf(3) / 5), (1, mpf(2) / 5)])
        conv = convolve_gaussian(base, 5, CTX)
        with mp.workdps(60):
            for lam, z in (
                (mpf(0), mpf("1.7")),
                (mpf(2), mpc("0.6", "0.3")),
                (mpf("-1"), mpf(4)),
            ):
                closed = eval_H(conv, lam, z, CTX).value
                quad = numerics.eval_H_density(conv, lam, z, CTX).value
                assert abs(closed - quad) < mpf("1e-28")

    def test_smeared_pair_formula(self):
        # independent per-atom expression: each site t0 contributes
        # w * sqrt(b0/c) exp((2 b0 t0 + iz)^2/(4c) - b0 t0^2) per unit mass
        # split across +-t0
        with mp.workdps(60):
            b0, lam = mpf(5), mpf(2)
            base = symmetric_atoms([(0, mpf(3) / 5), (1, mpf(2) / 5)])
            conv = convolve_gaussian(base, b0, CTX)
            c = b0 - lam
            z = mpc("1.1", "-0.4")

            def site(t0, w):
                return (
                    w
                    * mpmath.sqrt(b0 / c)
                    * mpmath.exp((2 * b0 * t0 + mpc(0, 1) * z) ** 2 / (4 * c) - b0 * t0 * t0)
                )

            want = site(mpf(0), mpf(3) / 5) + site(mpf(1), mpf(1) / 5) + site(mpf(-1), mpf(1) / 5)
            got = eval_H(conv, lam, z, CTX).value
            assert abs(got - want) < mpf("1e-38")

    @pytest.mark.parametrize("offset", ["0", "1e-25", "-1e-25"])
    def test_error_estimate_covers_cancellation_at_an_axis_zero(self, offset):
        # near b0: H = sqrt(80) e^{-8 z^2} (5/8 + (3/8) e^{790} cos 80z), so
        # at an axis zero the atom sum S cancels ~e^{790} down to ~0 and its
        # rounding, not |H|, sets the error; the reference is the per-site
        # expression at 90 digits
        ctx = PrecisionContext(20, mpf("1e-10"))
        base = symmetric_atoms([(0, mpf("0.625")), (1, mpf("0.375"))], ctx)
        conv = convolve_gaussian(base, 10, ctx)
        lam = mpf("9.875")
        with mp.workdps(90):
            b0, c = mpf(10), 10 - lam
            zero = mpmath.acos(-mpf("0.625") / (mpf("0.375") * mpmath.exp(b0 * (b0 / c - 1))))
            z = mpf(mpmath.nstr(zero * c / b0, 30)) + mpf(offset)

            def site(t0, w):
                return (
                    w
                    * mpmath.sqrt(b0 / c)
                    * mpmath.exp((2 * b0 * t0 + mpc(0, 1) * z) ** 2 / (4 * c) - b0 * t0 * t0)
                )

            want = site(0, mpf("0.625")) + site(1, mpf("0.1875")) + site(-1, mpf("0.1875"))
        got = eval_H(conv, lam, z, ctx)
        with mp.workdps(90):
            assert abs(got.value - want) <= got.abs_error_estimate

    def test_zero_multiplier_factorizes(self):
        # at lam = 0 the transform is the atomic transform times the
        # Gaussian kernel transform e^{-z^2/(4 b0)}
        base = symmetric_atoms([(2, 1), (mpf("0.5"), mpf(2))])
        b0 = mpf(3)
        conv = convolve_gaussian(base, b0, CTX)
        with mp.workdps(60):
            z = mpf("2.2")
            got = eval_H(conv, mpf(0), z, CTX).value
            want = eval_H(base, mpf(0), z, CTX).value * mpmath.exp(-z * z / (4 * b0))
            assert abs(got - want) < mpf("1e-40")


class TestSpecialKinds:
    def test_case6_single_upper_zero(self):
        m = named_density("Case6", CTX)
        with mp.workdps(60):
            at_zero = eval_H(m, mpf(0), mpc(0, 2), CTX).value
            assert abs(at_zero) < mpf("1e-40")
            on_axis = eval_H(m, mpf(0), mpf(1), CTX).value
            assert abs(mpmath.im(on_axis)) > mpf("0.01")
        assert not transform_function(m, mpf(0), CTX).real_on_axis()

    def test_case6_shifted_zero_with_multiplier(self):
        # with multiplier lam the effective rate is alpha = 1 - lam and the
        # zero sits at 2*alpha*i
        m = named_density("Case6", CTX)
        with mp.workdps(60):
            lam = mpf("0.25")
            z0 = mpc(0, 2 * (1 - lam))
            assert abs(eval_H(m, lam, z0, CTX).value) < mpf("1e-40")

    def test_case8_unit_mass_and_closed_form(self):
        m = named_density("Case8", CTX)
        with mp.workdps(60):
            h0 = eval_H(m, mpf(0), mpf(0), CTX).value
            assert abs(h0 - 1) < mpf("1e-40")
            # atom expansion must reproduce the closed form
            atoms = case8_atoms(CTX.tol_digits)
            assert abs(sum(w for _, w in atoms) - 1) < mpf("1e-32")
            closed = eval_H(m, mpf(0), mpf("1.2"), CTX).value
            direct = sum(
                w * (mpmath.cos(mpf("1.2") * t) if t else 1) for t, w in atoms
            )
            assert abs(closed - direct) < mpf("1e-30")
            # off the axis the truncated tail is amplified by e^{|Im z| t},
            # so the atom route is only good to ~1e-24 here; the closed form
            # is exact
            zc = mpc("0.3", "0.9")
            closed = eval_H(m, mpf(0), zc, CTX).value
            direct = sum(w * (mpmath.cos(zc * t) if t else 1) for t, w in atoms)
            assert abs(closed - direct) < mpf("1e-22")

    def test_case8_double_zero_at_i_pi(self):
        # cos(z) = -1 kills both the (1+cos) factor's neighbor and the
        # derivative: value and derivative vanish at z = pi, but not the
        # second derivative (a genuine double zero)
        m = named_density("Case8", CTX)
        with mp.workdps(60):
            parts = eval_H_parts(m, mpf(0), mp.pi, CTX, ("value", "deriv", "moment2"))
            assert abs(parts["value"].value) < mpf("1e-40")
            assert abs(parts["deriv"].value) < mpf("1e-40")
            assert abs(parts["moment2"].value) > mpf("0.01")
            simple = eval_H_parts(m, mpf(0), mp.pi / 2, CTX, ("value", "deriv"))
            assert abs(simple["value"].value) < mpf("1e-40")
            assert abs(simple["deriv"].value) > mpf("0.01")

    def test_case8_multiplier_sides(self):
        m = named_density("Case8", CTX)
        with pytest.raises(EntirenessError):
            eval_H(m, mpf("0.1"), mpf(0), CTX)
        with mp.workdps(60):
            v = eval_H(m, mpf("-0.5"), mpf(0), CTX).value
            assert abs(v.imag) < mpf("1e-40")
            assert 0 < v.real < 1  # strictly damped mass

    def test_case8_negative_multiplier_matches_reweighted_sum(self):
        m = named_density("Case8", CTX)
        with mp.workdps(60):
            lam = mpf("-0.3")
            atoms = case8_atoms(CTX.tol_digits)
            z = mpf("0.8")
            want = sum(
                w * mpmath.exp(lam * t * t) * (mpmath.cos(z * t) if t else 1)
                for t, w in atoms
            )
            got = eval_H(m, lam, z, CTX).value
            assert abs(got - want) < mpf("1e-30")

    def test_entireness_guards(self):
        g = named_density("Gaussian", CTX, b0=1)
        with pytest.raises(EntirenessError):
            eval_H(g, mpf(1), mpf(0), CTX)
        with pytest.raises(EntirenessError):
            eval_H(g, mpf("1.5"), mpf(0), CTX)
        # boundary evaluation allowed where the endpoint is in the set
        a = named_density("AbsExpGaussian", CTX, a=1, lam=1)
        v = eval_H(a, mpf(1), mpf("0.5"), CTX)
        assert v.value.real != 0


#: a minimal measure file for every kind in the kind table
KIND_SPECS = {
    "SymmetricAtoms": {"kind": "SymmetricAtoms", "atoms": [[0, 0.5], [1, 0.5]]},
    "GaussianConvolution": {
        "kind": "GaussianConvolution", "atoms": [[0, 0.6], [1, 0.4]], "params": {"b0": 2},
    },
    "RiemannPhi": {"kind": "RiemannPhi"},
    "Gaussian": {"kind": "Gaussian", "params": {"b0": 1}},
    "ExpPower": {"kind": "ExpPower", "params": {"q": 2}},
    "CoshExp": {"kind": "CoshExp", "params": {"a": 1}},
    "DBNClass": {
        "kind": "DBNClass",
        "params": {"K": 1, "m": 1, "alpha": 1, "beta": 0, "a_list": [1]},
    },
    "PolyaQuartic": {"kind": "PolyaQuartic", "params": {"a": 1, "b": 0, "c": 1, "q": 1}},
    "SexticField": {"kind": "SexticField", "params": {"a": 1, "b": 0, "c": 0}},
    "AbsExpGaussian": {"kind": "AbsExpGaussian", "params": {"a": 1, "lam": 1}},
    "PolyDecayGaussian": {"kind": "PolyDecayGaussian", "params": {"theta": 1, "lam": 1}},
    "Case6": {"kind": "Case6"},
    "Case8": {"kind": "Case8"},
}
LIGHT = PrecisionContext(20, mpf("1e-10"))


class TestKindTable:
    def test_every_kind_has_a_spec(self):
        assert set(KIND_SPECS) == set(_KINDS)

    @pytest.mark.parametrize("name", sorted(KIND_SPECS))
    def test_minimal_spec_round_trips_and_evaluates(self, name):
        spec = KIND_SPECS[name]
        m = parse_measure_spec(spec, LIGHT)
        assert (m.density_kind or m.kind) == name
        # every parameter is required
        for key in spec.get("params", {}):
            short = dict(spec, params={k: v for k, v in spec["params"].items() if k != key})
            with pytest.raises(SchemaError):
                parse_measure_spec(short, LIGHT)
        te = eval_H(m, mpf(0), mpf(1), LIGHT)
        assert mpmath.isfinite(te.value) and te.value != 0
        assert te.abs_error_estimate <= LIGHT.target_abs_tol
        real = abs(te.value.imag) <= te.abs_error_estimate
        assert real == transform_function(m, mpf(0), LIGHT).real_on_axis()

    @pytest.mark.parametrize(
        "name", sorted(k for k, spec in _KINDS.items() if spec.g is not None)
    )
    def test_envelope_bounds_density(self, name):
        # f(t) <= exp(-g(t)) past t_min is what the tail bound of the
        # quadrature route rests on; g' must be the derivative of g
        m = parse_measure_spec(KIND_SPECS[name], LIGHT)
        descr = m.decay_descriptor()
        with mp.workdps(40):
            for k in (1, 2, 4):
                t = mpf(descr.t_min) * k
                f = m.density_value(t, mp.dps)
                bound = mpmath.exp(-descr.g(t))
                assert 0 < f <= bound * (1 + mpf("1e-25")), (name, t)
                slope = descr.g_deriv(t)
                assert abs(slope - mpmath.diff(descr.g, t)) <= mpf("1e-20") * (1 + abs(slope))

    @pytest.mark.parametrize("name", sorted(_KINDS))
    def test_atoms_go_exactly_with_atomic_kinds(self, name):
        # a named kind given atoms, and an atomic kind without them, are
        # both refused at $.atoms; which kinds take atoms is table data
        spec = dict(KIND_SPECS[name])
        if _KINDS[name].from_atoms is None:
            spec["atoms"] = [[1, 1]]
        else:
            del spec["atoms"]
        with pytest.raises(SchemaError) as err:
            parse_measure_spec(spec, LIGHT)
        assert "$.atoms" in str(err.value)


ATOM_STRATEGY = st.lists(
    st.tuples(
        st.floats(0, 4, allow_nan=False, allow_infinity=False),
        st.floats(0.01, 3, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=5,
    unique_by=lambda p: round(p[0], 6),
)


@settings(max_examples=30, deadline=None)
@given(pairs=ATOM_STRATEGY, lam=st.floats(-1, 1), re=st.floats(-3, 3), im=st.floats(-2, 2))
def test_property_atomic_transform_symmetries(pairs, lam, re, im):
    """Evenness and conjugate symmetry hold exactly for atom transforms."""
    with mp.workdps(60):
        m = symmetric_atoms(pairs)
        z = mpc(re, im)
        lam = mpf(lam)
        a = eval_H(m, lam, z, CTX).value
        b = eval_H(m, lam, -z, CTX).value
        c = eval_H(m, lam, mpmath.conj(z), CTX).value
        assert abs(a - b) < mpf("1e-38") * (1 + abs(a))
        assert abs(mpmath.conj(c) - a) < mpf("1e-38") * (1 + abs(a))


@settings(max_examples=15, deadline=None)
@given(
    pairs=ATOM_STRATEGY,
    lam1=st.floats(-0.5, 0.5),
    lam2=st.floats(-0.5, 0.5),
)
def test_property_multiplier_composition_on_atoms(pairs, lam1, lam2):
    """Applying multipliers in two steps equals one combined step."""
    with mp.workdps(60):
        m = symmetric_atoms(pairs)
        two_step = apply_gaussian_multiplier(
            apply_gaussian_multiplier(m, mpf(lam1), ctx=CTX), mpf(lam2), ctx=CTX
        )
        one_step = apply_gaussian_multiplier(m, mpf(lam1) + mpf(lam2), ctx=CTX)
        for (t1, w1), (t2, w2) in zip(two_step.atoms, one_step.atoms):
            assert t1 == t2
            assert abs(w1 - w2) < mpf("1e-42") * (1 + abs(w1))


class TestCompiledCase8:
    @pytest.mark.parametrize("lam", ["-0.05", "-0.25", "-1"])
    @pytest.mark.parametrize("growth", [0, 1, 2, 3])
    def test_error_estimate_covers_the_dropped_tail(self, growth, lam):
        # the lattice sum stops at the first k > 3 whose weighted term is
        # below 10^-(tol_digits+5); its estimate must cover what a sum over
        # many more atoms adds
        m = named_density("Case8", LIGHT)
        lam = mpf(lam)
        z = mpc("2.3", growth)
        parts = ("value", "deriv", "moment2")
        got = eval_H_parts(m, lam, z, LIGHT, parts)
        with mp.workdps(60):
            ref = reference_parts(case8_atoms(40, growth, lam), 0, z, parts)
        for p in parts:
            assert abs(got[p].value - ref[p]) <= got[p].abs_error_estimate, p
        assert got["value"].abs_error_estimate <= LIGHT.target_abs_tol

    def test_near_zero_multiplier_matches_exact_form(self):
        # the lattice sum at lam = -1e-12 against c (1 + c) e^{c - 1} / 2,
        # c = cos z: sum w_k (1 - e^{lam k^2}) |cos kz| <= |lam| sum w_k k^2
        # cosh(k Im z), which is -H'' of the exact form at i |Im z|
        m = named_density("Case8", CTX)
        lam = mpf("-1e-12")
        for z in (mpf("1.2"), mpc("0.3", "0.9"), mpc("2.9", "-2.5")):
            lattice = eval_H(m, lam, z, CTX)
            with mp.workdps(60):
                c = mpmath.cos(z)
                exact = c * (1 + c) * mpmath.exp(c - 1) / 2
            spread = eval_H_parts(m, 0, mpc(0, abs(z.imag)), CTX, ("moment2",))["moment2"]
            bound = abs(lam) * spread.value.real + spread.abs_error_estimate
            assert abs(lattice.value - exact) <= bound + lattice.abs_error_estimate


DIFF_Z = dict(re=st.floats(-4, 4), im=st.floats(-3, 3))


def _assert_parts_match(got, want, slack=0):
    for p, te in got.items():
        assert abs(te.value - want[p]) <= te.abs_error_estimate + slack, (p, te.value, want[p])


@settings(max_examples=25, deadline=None)
@given(
    pairs=ATOM_STRATEGY, integer=st.booleans(), lam=st.floats(-1, 1), **DIFF_Z
)
def test_property_compiled_atoms_match_reference(pairs, integer, lam, re, im):
    """Value, H' and -H'' of atoms, at integer positions or not, against
    one cos and one sin per atom evaluated with 20 more digits."""
    if integer:
        pairs = list({round(t): (round(t), w) for t, w in pairs}.values())
    m = symmetric_atoms(pairs)
    lam, z = mpf(lam), mpc(re, im)
    fn = transform_function(m, lam, LIGHT)
    got = fn.parts(z, ("value", "deriv", "moment2"))
    with mp.workdps(50):
        _assert_parts_match(got, reference_parts(m.atoms, lam, z))


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(-1.5, -1e-6), **DIFF_Z)
def test_property_compiled_case8_matches_reference(lam, re, im):
    """Case 8 at lam < 0 against the per-atom sum over a longer atom list."""
    m = named_density("Case8", LIGHT)
    lam, z = mpf(lam), mpc(re, im)
    got = eval_H_parts(m, lam, z, LIGHT, ("value", "deriv", "moment2"))
    with mp.workdps(60):
        _assert_parts_match(got, reference_parts(case8_atoms(40, abs(z.imag), lam), 0, z))


@settings(max_examples=25, deadline=None)
@given(
    pairs=ATOM_STRATEGY, b0=st.floats(0.5, 10), frac=st.floats(-1, 0.9), **DIFF_Z
)
def test_property_compiled_convolution_matches_sites(pairs, b0, frac, re, im):
    """The smeared atoms against the per-site Gaussian integrals: the site
    at t0 of mass w gives w sqrt(b0/c) e^{u^2/(4c) - b0 t0^2}, u = 2 b0 t0 + iz,
    with H' and -H'' from u/(2c) and u^2/(4c^2) + 1/(2c)."""
    base = symmetric_atoms(pairs)
    if len(base.atoms) == 1 and base.atoms[0][0] == 0:
        return  # collapses to the Gaussian kind
    conv = convolve_gaussian(base, b0, LIGHT)
    b0 = conv.b0
    lam, z = b0 * mpf(frac), mpc(re, im)
    got = eval_H_parts(conv, lam, z, LIGHT, ("value", "deriv", "moment2"))
    with mp.workdps(50):
        c = b0 - lam
        want = {p: mpc(0) for p in got}
        for t, w in base.atoms:
            for t0, mass in ((t, w),) if t == 0 else ((t, w / 2), (-t, w / 2)):
                u = 2 * b0 * t0 + mpc(0, 1) * z
                site = mass * mpmath.sqrt(b0 / c) * mpmath.exp(u * u / (4 * c) - b0 * t0 * t0)
                want["value"] += site
                want["deriv"] += site * mpc(0, 1) * u / (2 * c)
                want["moment2"] += site * (u * u / (4 * c * c) + 1 / (2 * c))
        _assert_parts_match(got, want)


# ---------------------------------------------------------------------------
# transform plans: the trapezoid route against the adaptive reference
# ---------------------------------------------------------------------------

#: kinds without a closed form, whose density is analytic in a strip
PLAN_KINDS = sorted(k for k, s in _KINDS.items() if s.closed is None)
ALL_PARTS = ("value", "deriv", "moment2")


def _adaptive_calls(monkeypatch):
    """Record the measures that reach the adaptive quadrature route."""
    calls, adaptive = [], numerics.eval_H_density_parts

    def recorded(density, *args, **kw):
        calls.append(density.density_kind)
        return adaptive(density, *args, **kw)

    monkeypatch.setattr(numerics, "eval_H_density_parts", recorded)
    return calls


class TestPlanRoute:
    def test_route_follows_the_table(self, monkeypatch):
        # every density without a closed form takes a plan, and no kind
        # reaches the adaptive quadrature, which is only the reference
        assert PLAN_KINDS == [
            "CoshExp", "DBNClass", "ExpPower", "PolyDecayGaussian", "PolyaQuartic",
            "RiemannPhi", "SexticField",
        ]
        calls = _adaptive_calls(monkeypatch)
        for name in sorted(KIND_SPECS):
            m = parse_measure_spec(KIND_SPECS[name], LIGHT)
            eval_H_parts(m, mpf("-0.5"), mpc("1.5", "0.5"), LIGHT, ALL_PARTS)
        assert calls == []

    def test_multiplied_measure_takes_the_plan_of_its_base(self, monkeypatch):
        calls = _adaptive_calls(monkeypatch)
        with LIGHT.workdps():
            phi = named_density("RiemannPhi", LIGHT)
            normed = apply_gaussian_multiplier(phi, mpf("0.1"), normalize=True, ctx=LIGHT)
            h0 = eval_H(normed, mpf(0), mpf(0), LIGHT)
        assert abs(h0.value - 1) <= h0.abs_error_estimate
        assert calls == []

    @pytest.mark.parametrize("z", ["0", "1", "5", "0.3+0.2j", "41+0.5j", "164.7"])
    def test_phi_plan_against_the_xi_oracle(self, z, monkeypatch):
        # the four points of the quadrature oracle test, a far point whose
        # box needs a finer plan, and a multiple of 2 pi/h for the steps
        # T/16 and T/32: with a step too coarse for its box, the sum there
        # reads H(0) and its step-halving difference reads 0
        with LIGHT.workdps():
            phi = named_density("RiemannPhi", LIGHT)
            z = mpc(complex(z))
            out = eval_H(phi, mpf(0), z, LIGHT)
            ref = numerics.eval_xi_reference(z, PrecisionContext(40, mpf("1e-30")))
            assert out.abs_error_estimate <= LIGHT.target_abs_tol
            assert abs(out.value - ref) <= out.abs_error_estimate
        if z.real > 40:
            # the far box needs a finer plan than the box of 1, which is built
            # first here, so that the far plan does not serve 1 as well
            monkeypatch.setattr(measures, "_PLANS", {})
            with LIGHT.workdps():
                eval_H(phi, mpf(0), mpf(1), LIGHT)
                eval_H(phi, mpf(0), z, LIGHT)
            assert len(_phi_plan(phi, z).sites) > len(_phi_plan(phi, mpf(1)).sites)

    def test_a_point_over_tol_refines_its_plan(self, monkeypatch):
        monkeypatch.setattr(measures, "_PLANS", {})  # leave the shared plans alone
        with LIGHT.workdps():
            phi, z = named_density("RiemannPhi", LIGHT), mpc(3, "0.5")
            eval_H(phi, mpf(0), z, LIGHT)
            plan = _phi_plan(phi, z)
            nodes = len(plan.sites)
            plan.corner_gap = LIGHT.target_abs_tol  # as if the box were too coarse
            out = eval_H(phi, mpf(0), z, LIGHT)
            assert len(plan.sites) == 2 * nodes
            assert out.abs_error_estimate <= LIGHT.target_abs_tol
            # past the node cap the point is refused, never returned
            plan.corner_gap = LIGHT.target_abs_tol
            monkeypatch.setattr(measures, "_PLAN_NODE_CAP", 2 * nodes)
            with pytest.raises(QuadratureError):
                eval_H(phi, mpf(0), z, LIGHT)

    def test_a_point_takes_a_cached_plan_whose_box_contains_its_own(self, monkeypatch):
        # the (16, 1) plan's step, tail and corner gap hold over its whole
        # box, so points of the boxes (8, 0) and (8, 1) build no plan of
        # their own, in evaluate and in the twin
        monkeypatch.setattr(measures, "_PLANS", {})
        ref_ctx = PrecisionContext(40, mpf("1e-30"))
        with LIGHT.workdps():
            phi = named_density("RiemannPhi", LIGHT)
            eval_H(phi, mpf(0), mpc(12, "0.5"), LIGHT)
            (plan,) = measures._PLANS.values()
            fn = transform_function(phi, mpf(0), LIGHT)
            for z in (mpc(3), mpc(5, "0.7"), mpc("7.5", -1)):
                out = eval_H(phi, mpf(0), z, LIGHT)
                assert _phi_plan(phi, z) is plan
                ref = numerics.eval_xi_reference(z, ref_ctx)
                assert out.abs_error_estimate <= LIGHT.target_abs_tol
                assert abs(out.value - ref) <= out.abs_error_estimate
                v, _, err, n = fn.twin(z)
                assert abs(mpc(v) * 2**n - ref) <= err * 2**n + LIGHT.target_abs_tol
        assert list(measures._PLANS.values()) == [plan]

    def test_a_point_outside_every_cached_box_builds_its_own_plan(self, monkeypatch):
        monkeypatch.setattr(measures, "_PLANS", {})
        with LIGHT.workdps():
            phi = named_density("RiemannPhi", LIGHT)
            fn = transform_function(phi, mpf(0), LIGHT)
            eval_H(phi, mpf(0), mpc(12, "0.5"), LIGHT)
            # (24, 1) and (8, 2) each reach past the (16, 1) box
            for z, box in ((mpc(20, "0.5"), (24, 1)), (mpc(3, "1.5"), (8, 2))):
                assert fn.twin(z) is None  # no plan yet: the point takes mpmath
                eval_H(phi, mpf(0), z, LIGHT)
                key = _phi_key(phi, z)
                assert key[2:4] == box
                assert _phi_plan(phi, z) is measures._PLANS[key]
                assert fn.twin(z) is not None
        assert [k[2:4] for k in measures._PLANS] == [(16, 1), (24, 1), (8, 2)]

    def test_a_box_beyond_the_node_cap_is_refused(self):
        # h <= pi/X needs T X / pi nodes: far more than the cap here
        with LIGHT.workdps():
            phi = named_density("RiemannPhi", LIGHT)
            with pytest.raises(QuadratureError):
                eval_H(phi, mpf(0), mpc(30000, "0.5"), LIGHT)


def _phi_key(phi, z):
    """The plan cache key of z's box for Phi at lam = 0, at LIGHT."""
    X = 8 * max(1, int(mpmath.ceil(abs(mpf(z.real)) / 8)))
    Y = int(mpmath.ceil(abs(mpf(z.imag))))
    return (phi, mpf(0), X, Y, LIGHT.working_digits + 10, LIGHT.target_abs_tol)


def _phi_plan(phi, z):
    """The cached plan that serves z for Phi at lam = 0, at LIGHT: its own
    box's, else the smallest cached box that contains z's box."""
    return measures._cached_plan(_phi_key(phi, z))


def _assert_within_estimates(m, lam, z, ctx):
    """Value, H' and -H'' at ctx against the adaptive route at 60 digits:
    the deviation stays within the two estimates, and the estimate of the
    route under test within tol."""
    got = eval_H_parts(m, lam, z, ctx, ALL_PARTS)
    ref_ctx = PrecisionContext(60, mpf("1e-30"))
    with ref_ctx.workdps():
        ref = numerics.eval_H_density_parts(m, lam, z, ref_ctx, parts=ALL_PARTS)
        for p, te in got.items():
            assert te.abs_error_estimate <= ctx.target_abs_tol
            bound = te.abs_error_estimate + ref[p].abs_error_estimate
            assert abs(te.value - ref[p].value) <= bound, (p, lam, z)


@settings(max_examples=14, deadline=None)
@given(
    name=st.sampled_from(PLAN_KINDS),
    frac=st.floats(0, 1),
    re=st.floats(-12, 12),
    im=st.floats(-2, 2),
)
def test_property_plan_matches_adaptive_reference(name, frac, re, im):
    """Value, H' and -H'' of every plan kind against the adaptive route at
    60 digits, lam inside the tail set (at most b0 - 1/2 below an endpoint
    b0) and |Im z| <= 2: the deviation stays within the two estimates, and
    the plan's estimate within tol."""
    m = parse_measure_spec(KIND_SPECS[name], LIGHT)
    ts = tail_set(m)
    hi = mpf(1) if ts.shape == "AllReals" else min(mpf(1), ts.b0 - mpf(1) / 2)
    _assert_within_estimates(m, -1 + mpf(frac) * (hi + 1), mpc(re, im), LIGHT)


# ---------------------------------------------------------------------------
# AbsExpGaussian: the erfc closed form against the adaptive reference
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    a=st.floats(0.5, 2),
    lam=st.floats(-1, 0.5),
    re=st.floats(-40, 40),
    im=st.floats(-5, 5),
)
def test_property_absexp_closed_form_matches_adaptive_reference(a, lam, re, im):
    """The closed form against the adaptive route (see _assert_within_estimates)
    for a in [0.5, 2], lam_p = 1, lam from -1 to lam_p - 1/2, |Re z| <= 40
    and |Im z| <= 5."""
    m = named_density("AbsExpGaussian", LIGHT, a=a, lam=1)
    _assert_within_estimates(m, mpf(lam), mpc(re, im), LIGHT)


class TestAbsExpClosedForm:
    def test_cancellation_at_large_z(self):
        # c = lam_p - lam = 0.1 at z = 40: E' and E'' cancel there, and
        # without extra digits -H'' is off by 1.8e-26 against an estimate of 1e-26
        with mp.workdps(60):
            m, lam = named_density("AbsExpGaussian", LIGHT, a=1, lam=1), mpf("0.9")
        _assert_within_estimates(m, lam, mpc(40), LIGHT)

    def test_endpoint_is_the_rational_transform(self):
        # at lam = lam_p, H = 2a/d with d = a^2 + z^2: int e^{izt - a|t|} dt
        m = named_density("AbsExpGaussian", CTX, a="1.5", lam=1)
        with CTX.workdps(10):
            a, z = mpf("1.5"), mpc("0.7", "0.4")
            d = a * a + z * z
            want = {"value": 2 * a / d, "deriv": -4 * a * z / d**2,
                    "moment2": 4 * a * (a * a - 3 * z * z) / d**3}
            got = eval_H_parts(m, 1, z, CTX, ALL_PARTS)
            for p, te in got.items():
                assert abs(te.value - want[p]) <= te.abs_error_estimate <= CTX.target_abs_tol, p
        # the integral diverges once |Im z| >= a: refused, not continued
        with pytest.raises(TailBoundError):
            eval_H(m, 1, mpc(0, "1.5"), CTX)


# ---------------------------------------------------------------------------
# float64 twins: each within its bound of the mpmath value
# ---------------------------------------------------------------------------


def _assert_twin_within_bound(m, lam, z):
    """The raw twin at z (when it has a value) lies within its bound plus
    the mpmath estimate of the mpmath value, its scale taken exactly; the
    decision value TransformFunction.twin returns, when it returns one,
    lies within its bound too, and that bound is TWIN_MARGIN below it.  H'
    has no bound of its own: it must agree to 1e-8 of |H| + |H'|."""
    fn = transform_function(m, lam, LIGHT)
    parts = fn.parts(z, ("value", "deriv"))  # builds a plan box first
    te, deriv = parts["value"], parts["deriv"].value
    raw = fn._twin(complex(z), True)
    got = fn.twin(z, deriv=True)
    with mp.workdps(50):
        if raw is not None:
            v, _, err, s = raw
            scale = mpmath.exp(s)
            assert abs(mpc(v) * scale - te.value) <= err * scale + te.abs_error_estimate, (z, raw)
        if got is not None:
            v, d, err, n = got
            assert err * measures.TWIN_MARGIN <= abs(v)
            assert abs(mpc(v) * mpf(2) ** n - te.value) <= (
                err * mpf(2) ** n + te.abs_error_estimate
            ), (z, got)
            slack = mpf("1e-8") * (abs(te.value) + abs(deriv)) + te.abs_error_estimate
            assert abs(mpc(d) * mpf(2) ** n - deriv) <= slack, (z, got)
    return raw, got


TWIN_Z = dict(re=st.floats(-8, 8), im=st.floats(-3, 3))


@settings(max_examples=30, deadline=None)
@given(pairs=ATOM_STRATEGY, lam=st.floats(-1, 1.5), **TWIN_Z)
def test_property_cos_sum_twin_within_bound(pairs, lam, re, im):
    """_cos_sums (SymmetricAtoms)."""
    _assert_twin_within_bound(symmetric_atoms(pairs), mpf(lam), mpc(re, im))


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["Gaussian", "Case6", "GaussianConvolution"]),
    pairs=ATOM_STRATEGY,
    frac=st.floats(-1, 0.999),
    **TWIN_Z,
)
def test_property_gaussian_shape_twin_within_bound(kind, pairs, frac, re, im):
    """_gaussian_shape_parts: the Gaussian, Case 6, and the convolution up
    to lam = 0.999 b0, where its weights leave the float range."""
    with LIGHT.workdps():
        if kind == "GaussianConvolution":
            pairs = [(0, 0.6)] + [(t, w) for t, w in pairs if t > 0.1]
            m = convolve_gaussian(symmetric_atoms(pairs), 10, LIGHT)
            lam = 10 * mpf(frac)
        elif kind == "Gaussian":
            m, lam = named_density("Gaussian", LIGHT, b0=2), 2 * mpf(frac)
        else:
            m, lam = named_density("Case6", LIGHT), mpf(frac)
    _assert_twin_within_bound(m, lam, mpc(re, im))


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(PLAN_KINDS + ["Case8"]),
    frac=st.floats(0, 1),
    re=st.floats(-12, 12),
    im=st.floats(-2, 2),
)
def test_property_lattice_twin_within_bound(name, frac, re, im):
    """_lattice_sums: every plan kind (lam as in the plan reference test)
    and Case 8 at lam < 0, with its cut and tail bound."""
    m = parse_measure_spec(KIND_SPECS[name], LIGHT)
    ts = tail_set(m)
    if name == "Case8":
        lam = -mpf("1e-3") - mpf(frac)
    else:
        hi = mpf(1) if ts.shape == "AllReals" else min(mpf(1), ts.b0 - mpf(1) / 2)
        lam = -1 + mpf(frac) * (hi + 1)
    raw, _ = _assert_twin_within_bound(m, lam, mpc(re, im))
    assert raw is not None


@settings(max_examples=30, deadline=None)
@given(**TWIN_Z)
def test_property_case8_exact_twin_within_bound(re, im):
    """_case8_exact: c (1 + c) e^{c - 1} / 2 at lam = 0, double zeros at
    odd multiples of pi included."""
    raw, _ = _assert_twin_within_bound(named_density("Case8", LIGHT), mpf(0), mpc(re, im))
    assert raw is not None


class TestTwinCoverage:
    def test_absexp_has_no_twin(self):
        fn = transform_function(named_density("AbsExpGaussian", LIGHT, a=1, lam=1), 0, LIGHT)
        assert fn.twin(mpc("0.5", "0.2"), deriv=True) is None

    def test_a_zero_of_h_takes_mpmath(self):
        # (2/3)(1 + cos z) at lam = log 2 has a double zero at pi
        with LIGHT.workdps():
            fn = transform_function(
                symmetric_atoms([(0, mpf(2) / 3), (1, mpf(1) / 3)]), mpmath.log(2), LIGHT
            )
            assert fn.twin(mp.pi) is None
            assert fn.twin(mpf(1)) is not None

    def test_normalized_multiplier_scales_the_twin(self):
        with LIGHT.workdps():
            phi = named_density("RiemannPhi", LIGHT)
            normed = apply_gaussian_multiplier(phi, mpf("0.1"), normalize=True, ctx=LIGHT)
        for z in (mpf(0), mpc(3, "0.5")):
            raw, got = _assert_twin_within_bound(normed, mpf(0), z)
            assert raw is not None and got is not None


# ---------------------------------------------------------------------------
# the second-derivative bound of a positive measure
# ---------------------------------------------------------------------------


def _bound_cases():
    with LIGHT.workdps():
        atoms = symmetric_atoms([(0, mpf(2) / 3), (1, mpf(1) / 3), (mpf("2.5"), mpf("0.2"))], LIGHT)
        cases = [
            ("atoms", atoms, mpf("0.3")),
            ("convolution", convolve_gaussian(atoms, 10, LIGHT), mpf(1)),
            ("case8", named_density("Case8", LIGHT), mpf(0)),
            ("case8_negative", named_density("Case8", LIGHT), mpf("-0.25")),
            ("phi_plan", named_density("RiemannPhi", LIGHT), mpf(0)),
        ]
    return [pytest.param(m, lam, id=name) for name, m, lam in cases]


class TestSecondDerivativeBound:
    @pytest.mark.parametrize("m, lam", _bound_cases())
    @pytest.mark.parametrize("y", ["0.4", "1.5"])
    def test_bound_covers_the_strip(self, m, lam, y):
        # |H''| = |moment2| at points on |Im z| <= y, edges included, stays
        # below -H''(iy) plus its estimate
        fn = transform_function(m, lam, LIGHT)
        with LIGHT.workdps(10):
            y = mpf(y)
            bound = fn.second_derivative_bound(y)
            for x in ("0", "0.7", "1.9", "3.3", "5.1"):
                for frac in (-1, mpf("-0.5"), 0, mpf("0.5"), 1):
                    z = mpc(mpf(x), frac * y)
                    assert abs(fn.parts(z, ("moment2",))["moment2"].value) <= bound, z

    def test_positive_is_a_table_fact_false_only_for_case6(self):
        assert [k for k, spec in _KINDS.items() if not spec.positive] == ["Case6"]
        with LIGHT.workdps():
            case6 = named_density("Case6", LIGHT)
            phi = named_density("RiemannPhi", LIGHT)
            assert not case6.positive and phi.positive
            assert symmetric_atoms([(1, 1)], LIGHT).positive
            # a MultipliedMeasure takes its base's value
            assert not apply_gaussian_multiplier(case6, mpf("0.1"), ctx=LIGHT).positive
            assert apply_gaussian_multiplier(phi, mpf("0.1"), ctx=LIGHT).positive

    def test_case6_has_no_bound(self):
        with LIGHT.workdps():
            fn = transform_function(named_density("Case6", LIGHT), mpf(0), LIGHT)
        with pytest.raises(DomainError):
            fn.second_derivative_bound(mpf(1))
