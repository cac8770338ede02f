"""The benchmark's workloads: seeded inputs, the timed job, reference checks.

Every workload runs at 20 working digits with target tolerance 1e-10 (the
tests' light context), single-threaded, and only draws inputs from ranges
that keep an exact reference.  Each workload function ``(seed, tmpdir)``
is the set-up: it builds contexts, measures, windows and measure files and
returns the job.  Calling the job runs the timed part and returns one
``Op`` per checked operation.

An operation is one verdict, bisection, oracle point or Lehmer sweep.  It
fails when it misses its reference ("wrong") or when the program refuses
it with a ``DbnlabError`` ("refused"); a refusal is recorded, never raised.
"""

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass

import mpmath
from mpmath import mp, mpc, mpf

# layers are called through their modules, so that the tracer's wrappers
# (swapped into the dbnlab modules) see these calls too
from dbnlab import cli, estimator, measures, numerics, zeros
from dbnlab.precision import DbnlabError, DomainError, PrecisionContext

DIGITS = 20
TARGET_TOL = "1e-10"
ZERO_TABLE = os.path.join("tests", "data", "xi_zeros_100.txt")
#: k with a defined close-pair bound over the 100-ordinate table at radius 100
LEHMER_DEFINED = [34, 53, 63, 71, 91, 97]


@dataclass
class Op:
    name: str
    status: str  # "ok", "wrong" or "refused"
    output: str  # what the program answered, compared across repetitions
    detail: str = ""


def _ctx():
    return PrecisionContext(working_digits=DIGITS, target_abs_tol=mpf(TARGET_TOL))


def _n(x):
    return mpmath.nstr(x, 15)


def _checked(name, compute):
    """Run compute() -> (ok, output, detail) and turn it into an Op."""
    try:
        ok, output, detail = compute()
    except DbnlabError as e:
        return Op(name, "refused", type(e).__name__, str(e))
    return Op(name, "ok" if ok else "wrong", output, detail)


# ---------------------------------------------------------------------------
# phi_verdict: the Riemann-Phi window verdict, the xi oracle, Lehmer pairs
# ---------------------------------------------------------------------------


def phi_verdict(seed, tmpdir):
    rng = random.Random(seed)
    ctx = _ctx()
    with ctx.workdps():
        phi = measures.named_density("RiemannPhi", ctx)
        # Every lambda up to 0.05 makes 883 evaluations in this verdict; by
        # 0.06 the edge integrals split further (1315), which would make the
        # work depend on the seed.
        lam = mpf("%.4f" % rng.uniform(0, 0.05))
        # contains the first ordinate 14.13 and stays clear of 21.02
        window = zeros.Rectangle.make(-16, 16, -1, 1)
        points = [
            mpc("%.3f" % rng.uniform(0.5, 20), "%.3f" % rng.uniform(-1, 1))
            for _ in range(6)
        ]
    with open(ZERO_TABLE, encoding="utf-8") as fh:
        table = estimator.ingest_zero_table(fh.read(), ctx=ctx)

    def verdict():
        # lambda >= 0 keeps the (real) zeros of Phi's transform real
        v = zeros.verify_all_real(phi, lam, window, ctx)
        return v.all_real, "all_real=%s" % v.all_real, "lambda=%s" % _n(lam)

    def oracle(z):
        def compute():
            with ctx.workdps():
                out = measures.eval_H(phi, 0, z, ctx)
                ref = numerics.eval_xi_reference(z, ctx)
                diff = abs(out.value - ref)
                ok = diff <= out.abs_error_estimate + ctx.target_abs_tol
            return ok, _n(out.value), "z=%s diff=%s" % (_n(z), mpmath.nstr(diff, 3))
        return compute

    def lehmer():
        defined, worst = [], mpf("-inf")
        for k in range(1, len(table.ordinates)):
            try:
                rec = estimator.lehmer_lower_bound(table, k, 100, ctx)
            except DomainError:
                continue  # the bracket leaves the reals: no bound for this k
            defined.append(k)
            worst = max(worst, rec.lambda_k)
        ok = defined == LEHMER_DEFINED and worst <= 0
        return ok, "k=%s max_lambda=%s" % (defined, _n(worst)), ""

    def job():
        ops = [_checked("verdict", verdict)]
        ops += [_checked("xi_oracle_%d" % i, oracle(z)) for i, z in enumerate(points)]
        ops.append(_checked("lehmer_sweep", lehmer))
        return ops

    return job


# ---------------------------------------------------------------------------
# bisect_closed: two threshold bisections through the CLI, closed forms only
# ---------------------------------------------------------------------------


def _write_measure(tmpdir, name, spec):
    path = os.path.join(tmpdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return path


def _cli_bisect(measure_path, lo, hi, tol, rect):
    return [
        "bisect", "--measure", measure_path, "--lo", lo, "--hi", hi,
        "--tol", tol, "--rect=" + rect, "--digits", str(DIGITS),
        "--target-tol", TARGET_TOL, "--workers", "1",
    ]


def _scaled(x, scale, digits=15):
    return mpmath.nstr(mpf(x) / scale, digits)


def bisect_closed(seed, tmpdir):
    """The tests' two threshold bisections, rescaled by a seeded length.

    Moving the atoms from +-1 to +-a maps H(z) to H(a z), so with the window
    divided by a and the multiplier range and tolerance by a^2 each seed
    poses the same problem in other numbers: the answers change with the
    seed, the work does not.  Drawing the weights or b0 instead changed the
    number of evaluations by up to 40% between seeds.
    """
    rng = random.Random(seed)
    with mp.workdps(30):
        a = mpf("%.3f" % rng.uniform(0.8, 1.25))
        a2 = a * a
        pos = mpmath.nstr(a, 25)
        b0 = mpmath.nstr(10 / a2, 25)  # 10 at unit scale
        window = ",".join(_scaled(x, a) for x in (-8, 8, -2, 2))
        # H = w0 + w1 e^{lam a^2} cos(a z): all real from w1 e^{lam a^2} = w0 on
        atom_ref = mpmath.log(2) / a2
        # after the multiplier, H is a positive multiple of
        # w0 + w1 e^{b0 a^2 (b0/c - 1)} cos(a b0 z / c), c = b0 - lam
        b0a2 = mpf(b0) * a2
        conv_ref = mpf(b0) - mpf(b0) * b0a2 / (b0a2 + mpmath.log(mpf(3) / 2))
        atom_argv = ["0", _scaled(1, a2), _scaled("1e-6", a2, 6)]
        conv_argv = ["0", _scaled(mpf("0.99") * 10, a2), _scaled("1e-5", a2, 6)]
    atom_path = _write_measure(tmpdir, "two_atom.json", {
        "kind": "SymmetricAtoms",
        "atoms": [[0, "0.6666666666666666666666667"], [pos, "0.3333333333333333333333333"]],
    })
    conv_path = _write_measure(tmpdir, "smoothed_two_atom.json", {
        "kind": "GaussianConvolution", "atoms": [[0, "0.6"], [pos, "0.4"]], "params": {"b0": b0},
    })
    runs = [
        ("bisect_two_atom", _cli_bisect(atom_path, *atom_argv, window), atom_ref,
         mpf(atom_argv[2])),
        ("bisect_smoothed", _cli_bisect(conv_path, *conv_argv, window), conv_ref,
         mpf(conv_argv[2])),
    ]

    def bisect(argv, ref, tol):
        def compute():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.command_surface(argv, out)
            if code != 0:
                raise DbnlabError("exit code %d: %s" % (code, err.getvalue().strip()))
            rec = [json.loads(line) for line in out.getvalue().splitlines()]
            est = [r["lambda_estimate"] for r in rec if r["record"] == "bisect"][0]
            with mp.workdps(30):
                miss = abs(mpf(est) - ref)
            return miss < tol, est, "reference %s, miss %s" % (_n(ref), mpmath.nstr(miss, 3))
        return compute

    def job():
        return [_checked(name, bisect(argv, ref, tol)) for name, argv, ref, tol in runs]

    return job


# ---------------------------------------------------------------------------
# offender_locate: non-real zeros hunted down and located
# ---------------------------------------------------------------------------


def offender_locate(seed, tmpdir):
    rng = random.Random(seed)
    ctx = _ctx()
    with ctx.workdps():
        case8 = measures.named_density("Case8", ctx)
        case6 = measures.named_density("Case6", ctx)
        lam8 = mpf("-0.25")
        window8 = zeros.Rectangle.make("1.5", "4.8", -2, 2)
        window6 = zeros.Rectangle.make(-4, 4, -3, 3)
        bs = [mpf(0), mpf("%.3f" % rng.uniform(0, 0.5))]

    def case8_verdict():
        # a negative multiplier splits the double zero at pi into a pair
        # pi +- iy; the transform is even and 2pi-periodic, so Re stays pi
        v = zeros.verify_all_real(case8, lam8, window8, ctx)
        off = v.worst_offender
        if v.all_real or off is None:
            return False, "all_real=%s" % v.all_real, ""
        with ctx.workdps():
            ok = abs(off.imag) > mpf("0.3") and abs(off.real - mp.pi) < mpf("1e-8")
        return ok, _n(off), ""

    def case6_verdict(b):
        def compute():
            v = zeros.verify_all_real(case6, b, window6, ctx)
            off = v.worst_offender
            if v.all_real or off is None:
                return False, "all_real=%s" % v.all_real, ""
            with ctx.workdps():
                miss = abs(off - mpc(0, 2 * (1 - b)))
            return miss < mpf("1e-8"), _n(off), "b=%s miss=%s" % (_n(b), mpmath.nstr(miss, 3))
        return compute

    def job():
        ops = [_checked("case8_offender", case8_verdict)]
        ops += [_checked("case6_offender_%d" % i, case6_verdict(b)) for i, b in enumerate(bs)]
        return ops

    return job


WORKLOADS = {
    "phi_verdict": phi_verdict,
    "bisect_closed": bisect_closed,
    "offender_locate": offender_locate,
}
