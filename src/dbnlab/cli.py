"""Command-line surface: configuration, measure/system files, record streams.

Every subcommand emits a meta record (the only place a timestamp appears)
followed by data records, as JSON lines or CSV.  Arbitrary-precision
numbers are rendered as decimal strings at the configured digit count, so
a fixed configuration reproduces its output byte for byte.  Grid scans,
close-pair sweeps and the casebook have one run path: one picklable job
per point, k or case, run by _pool_map inline for one worker and across
processes for more.  Each job rebuilds its own precision state, since the
underlying bignum library keeps precision in thread-shared state.

The flow, leeyang and casebook modules (numpy, for flow) are imported by
the commands that use them: an interpreter compiles each module it loads
when bytecode is not written, and the other commands need none of them.
"""

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import mpmath
from mpmath import mpc, mpf

from .estimator import (
    bisect_lambda,
    ingest_zero_table,
    lehmer_lower_bound,
    monotonicity_warnings,
    scan_lambda,
)
from .measures import EvenMeasure, eval_H, make_measure, transform_function
from .numerics import eval_phi, eval_theta, eval_xi_reference
from .precision import (
    DbnlabError,
    DomainError,
    FieldError,
    PrecisionContext,
    SchemaError,
)
from .zeros import Rectangle, locate_zeros

__all__ = ["RunConfig", "command_surface", "main"]

_FORMATS = ("json-lines", "csv")


@dataclass(frozen=True)
class RunConfig:
    """Shared run settings: precision, output format, parallelism."""

    digits: int = 25
    target_tol: str = "1e-12"
    fmt: str = "json-lines"
    workers: int = 1

    def __post_init__(self):
        if self.digits < 15:
            raise SchemaError("digits must be at least 15, got %d" % self.digits)
        if self.workers < 1:
            raise SchemaError("workers must be at least 1, got %d" % self.workers)
        if self.fmt not in _FORMATS:
            raise SchemaError("format must be one of %s" % (_FORMATS,))

    def context(self) -> PrecisionContext:
        try:
            with mpmath.mp.workdps(max(15, self.digits)):
                return PrecisionContext(
                    working_digits=self.digits, target_abs_tol=mpf(self.target_tol)
                )
        except ValueError as e:
            raise SchemaError(str(e))


# ---------------------------------------------------------------------------
# record emission
# ---------------------------------------------------------------------------


class _Emitter:
    """Streams records in the configured format.

    CSV drops the record-kind discriminator and re-emits a header whenever
    the field set changes, so homogeneous outputs (one record kind) come
    out as a single plain table; the meta record becomes comment lines.
    """

    def __init__(self, fmt: str, stream, digits: int):
        self.fmt = fmt
        self.stream = stream
        self.digits = digits
        self._csv_keys = None

    def _fmt_value(self, v):
        if v is None or isinstance(v, (bool, int, str)):
            return v
        if isinstance(v, float):
            return repr(v)
        if isinstance(v, (mpf, mpc)):
            return mpmath.nstr(v, self.digits)
        return str(v)

    def meta(self, **fields):
        fields["timestamp"] = datetime.now(timezone.utc).isoformat()
        if self.fmt == "json-lines":
            out = {"record": "meta"}
            out.update({k: self._fmt_value(v) for k, v in fields.items()})
            self.stream.write(json.dumps(out) + "\n")
        else:
            for k, v in fields.items():
                self.stream.write("# %s=%s\n" % (k, self._fmt_value(v)))

    def record(self, kind: str, fields: dict):
        rendered = {k: self._fmt_value(v) for k, v in fields.items()}
        if self.fmt == "json-lines":
            out = {"record": kind}
            out.update(rendered)
            self.stream.write(json.dumps(out) + "\n")
        else:
            keys = list(rendered)
            if keys != self._csv_keys:
                self._write_csv_row(keys)
                self._csv_keys = keys
            self._write_csv_row(
                ["" if rendered[k] is None else rendered[k] for k in keys]
            )

    def _write_csv_row(self, cells):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(cells)
        self.stream.write(buf.getvalue())


# ---------------------------------------------------------------------------
# input parsing: numbers, complex values, rectangles, measure/system files
# ---------------------------------------------------------------------------


def _parse_mpf(text, what: str) -> mpf:
    """A flag's number; no flag takes nan or an infinity."""
    x = _expect_number(text, what)
    if not mpmath.isfinite(x):
        raise SchemaError("%s: expected a finite number, got %r" % (what, text))
    return x


def _parse_complex(text, what: str) -> mpc:
    parts = str(text).split(",")
    if len(parts) == 1:
        return mpc(_parse_mpf(parts[0], what), 0)
    if len(parts) == 2:
        return mpc(_parse_mpf(parts[0], what), _parse_mpf(parts[1], what))
    raise SchemaError("%s: expected RE or RE,IM, got %r" % (what, text))


def _parse_rect(text) -> Rectangle:
    parts = str(text).split(",")
    if len(parts) != 4:
        raise SchemaError("--rect: expected A,B,C,D, got %r" % text)
    return _built_at("--rect", Rectangle.make, *[_parse_mpf(p, "--rect") for p in parts])


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise SchemaError("cannot read %s: %s" % (path, e))
    except ValueError as e:
        raise SchemaError("%s: invalid JSON: %s" % (path, e))


def _expect_object(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise SchemaError("%s: expected an object" % path)
    return node


def _expect_number(node, path: str) -> mpf:
    """A number from a file or a flag; a file's nan or infinity is left to
    the constraint of what it builds."""
    if isinstance(node, bool) or not isinstance(node, (int, float, str)):
        raise SchemaError("%s: expected a number" % path)
    try:
        return mpf(str(node))
    except Exception:
        raise SchemaError("%s: cannot parse %r as a number" % (path, node))


def _reject_unknown(node: dict, allowed, path: str):
    for key in node:
        if key not in allowed:
            raise SchemaError("%s.%s: unexpected field" % (path, key))


def _built_at(path: str, build, *args):
    """build(*args), with what it refuses reported as a schema error at path."""
    try:
        return build(*args)
    except FieldError as e:
        raise SchemaError("%s.%s: %s" % (path, e.field, e))
    except (ValueError, DomainError) as e:
        raise SchemaError("%s: %s" % (path, e))


def _parse_atoms(node, path: str):
    if not isinstance(node, list) or not node:
        raise SchemaError("%s: expected a non-empty array of [t, w] pairs" % path)
    atoms = []
    for i, pair in enumerate(node):
        p = "%s[%d]" % (path, i)
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError("%s: expected a [t, w] pair" % p)
        atoms.append((_expect_number(pair[0], p + "[0]"), _expect_number(pair[1], p + "[1]")))
    return atoms


def parse_measure_spec(spec, ctx: PrecisionContext) -> EvenMeasure:
    """Measure from its JSON form: {"kind": ..., "atoms": ..., "params": ...}.

    kind is any kind make_measure builds; atoms, for the kinds built from
    atoms, is an array of [t, w] with w the total weight at +-t; params is
    an object of numbers (or arrays of numbers).  Violations report the
    JSON path.
    """
    top = _expect_object(spec, "$")
    kind = top.get("kind")
    if not isinstance(kind, str):
        raise SchemaError("$.kind: expected a string")
    _reject_unknown(top, ("kind", "atoms", "params"), "$")

    params = {}
    if "params" in top:
        pnode = _expect_object(top["params"], "$.params")
        for key, val in pnode.items():
            path = "$.params.%s" % key
            if isinstance(val, list):
                params[key] = tuple(
                    _expect_number(v, "%s[%d]" % (path, i)) for i, v in enumerate(val)
                )
            else:
                params[key] = _expect_number(val, path)
    atoms = _parse_atoms(top["atoms"], "$.atoms") if "atoms" in top else None
    return _built_at("$", make_measure, kind, params, atoms, ctx)


def parse_system_spec(spec) -> "SpinSystem":
    """Spin system from its JSON form.

    Required "couplings" (square symmetric matrix, zero diagonal);
    optional "beta" (default 1), "site" (a site kind name, or
    {"kind": ..., "params": {...}}; default "PlusMinusOne"),
    "field_weights", "search_mode".  A value the layers below refuse, a
    site parameter included, is a schema error naming its JSON path.
    """
    from .leeyang import PLUS_MINUS_ONE, SiteMeasure, SpinSystem

    top = _expect_object(spec, "$")
    _reject_unknown(
        top, ("couplings", "beta", "site", "field_weights", "search_mode"), "$"
    )
    if "couplings" not in top:
        raise SchemaError("$.couplings: required")
    rows = top["couplings"]
    if not isinstance(rows, list) or not rows:
        raise SchemaError("$.couplings: expected a non-empty array of rows")
    couplings = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise SchemaError("$.couplings[%d]: expected an array" % i)
        couplings.append(
            [float(_expect_number(v, "$.couplings[%d][%d]" % (i, j)))
             for j, v in enumerate(row)]
        )
    beta = float(_expect_number(top.get("beta", 1), "$.beta"))
    search_mode = top.get("search_mode", False)
    if not isinstance(search_mode, bool):
        raise SchemaError("$.search_mode: expected a boolean")
    weights = None
    if "field_weights" in top:
        wnode = top["field_weights"]
        if not isinstance(wnode, list):
            raise SchemaError("$.field_weights: expected an array")
        weights = [
            float(_expect_number(v, "$.field_weights[%d]" % i))
            for i, v in enumerate(wnode)
        ]

    site = PLUS_MINUS_ONE
    if "site" in top:
        snode = top["site"]
        snode = _expect_object({"kind": snode} if isinstance(snode, str) else snode, "$.site")
        _reject_unknown(snode, ("kind", "params"), "$.site")
        sparams = _expect_object(snode.get("params", {}), "$.site.params")
        vals = {
            k: _expect_number(v, "$.site.params.%s" % k)
            for k, v in sparams.items()
        }
        site = _built_at("$.site", SiteMeasure.make, snode.get("kind"), vals)
    return _built_at("$", SpinSystem.make, couplings, beta, site, weights, search_mode)


def _parse_flow_init(spec):
    """Initial flow state from JSON: [x1, ...] or {"t": t0, "positions": [...]}."""
    from .flow import FlowState  # numpy only for the flow jobs

    if isinstance(spec, list):
        t0, node = 0.0, spec
    else:
        top = _expect_object(spec, "$")
        _reject_unknown(top, ("t", "positions"), "$")
        if "positions" not in top:
            raise SchemaError("$.positions: required")
        t0 = float(_expect_number(top.get("t", 0), "$.t"))
        node = top["positions"]
        if not isinstance(node, list):
            raise SchemaError("$.positions: expected an array")
    positions = [float(_expect_number(v, "$[%d]" % i)) for i, v in enumerate(node)]
    return _built_at("$.positions", FlowState.make, t0, positions)


# ---------------------------------------------------------------------------
# worker entry points (top level so the process pool can import them)
# ---------------------------------------------------------------------------


def _scan_point_job(args):
    """Fields of one scan_point record; the command adds the warnings."""
    measure, lam, rect, digits, tol_text = args
    ctx = RunConfig(digits=digits, target_tol=tol_text).context()
    with ctx.workdps():
        r = scan_lambda(measure, [lam], rect, ctx)[0]
    fields = {
        "lambda": r.lam,
        "entire": r.entire,
        "all_real": r.all_real,
        "margin": None,
        "offender_re": None,
        "offender_im": None,
        "warning": r.warning,
    }
    if r.verdict is not None:
        fields["margin"] = r.verdict.margin
        if r.verdict.worst_offender is not None:
            fields["offender_re"] = r.verdict.worst_offender.real
            fields["offender_im"] = r.verdict.worst_offender.imag
    return fields


def _lehmer_job(args):
    table, k, radius, digits, tol_text = args
    ctx = RunConfig(digits=digits, target_tol=tol_text).context()
    with ctx.workdps():
        xs = table.ordinates
        mean_gap = (xs[-1] - xs[0]) / (len(xs) - 1) if len(xs) > 1 else mpf(1)
        tail = 4 / (mean_gap * radius)
        try:
            rec = lehmer_lower_bound(table, k, radius, ctx)
        except DomainError as e:
            return ("lehmer_refused", {"k": k, "reason": str(e)})
        return (
            "lehmer_pair",
            {
                "k": rec.k,
                "gap": rec.gap,
                "g_k": rec.g_k,
                "lambda_k": rec.lambda_k,
                "truncation_radius": rec.truncation_radius,
                "g_k_tail_estimate": tail,
            },
        )


def _case_job(args):
    from .casebook import run_case

    case_id, digits, tol_text = args
    cfg = RunConfig(digits=digits, target_tol=tol_text)
    return run_case(case_id, cfg.context()).as_dict()


def _pool_map(jobs, worker, workers: int):
    if workers <= 1 or len(jobs) <= 1:
        return [worker(j) for j in jobs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(worker, jobs))


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_phi(args, cfg, emit):
    ctx = cfg.context()
    u = _parse_mpf(args.u, "--u")
    value = eval_phi(u, ctx)
    emit.record(
        "phi",
        {"u": u, "value": value, "abs_error_estimate": ctx.target_abs_tol},
    )
    return 0


def _cmd_theta(args, cfg, emit):
    ctx = cfg.context()
    x = _parse_mpf(args.x, "--x")
    with ctx.workdps():
        direct = eval_theta(x, ctx)
        flipped = eval_theta(1 / x, ctx)
        residual = abs(flipped - mpmath.sqrt(x) * direct)
    emit.record(
        "theta",
        {
            "x": x,
            "value": direct,
            "reciprocal_value": flipped,
            "identity_residual": residual,
            "abs_error_estimate": ctx.target_abs_tol,
        },
    )
    return 0


def _cmd_xi(args, cfg, emit):
    ctx = cfg.context()
    z = _parse_complex(args.z, "--z")
    value = eval_xi_reference(z, ctx)
    emit.record(
        "xi",
        {
            "z_re": z.real,
            "z_im": z.imag,
            "value_re": value.real,
            "value_im": value.imag,
            "abs_error_estimate": ctx.target_abs_tol,
        },
    )
    return 0


def _cmd_eval(args, cfg, emit):
    ctx = cfg.context()
    measure = parse_measure_spec(_load_json(args.measure), ctx)
    lam = _parse_mpf(args.lam, "--lambda")
    z = _parse_complex(args.z, "--z")
    out = eval_H(measure, lam, z, ctx)
    emit.record(
        "transform",
        {
            "lambda": lam,
            "z_re": z.real,
            "z_im": z.imag,
            "value_re": out.value.real,
            "value_im": out.value.imag,
            "abs_error_estimate": out.abs_error_estimate,
            "n_evals": out.n_evals,
        },
    )
    return 0


def _cmd_zeros(args, cfg, emit):
    ctx = cfg.context()
    measure = parse_measure_spec(_load_json(args.measure), ctx)
    lam = _parse_mpf(args.lam, "--lambda")
    rect = _parse_rect(args.rect)
    zs = locate_zeros(transform_function(measure, lam, ctx), rect, ctx)
    emit.record("zero_set", {"lambda": lam, "count": zs.count})
    for z in zs.zeros:
        emit.record(
            "zero",
            {
                "re": z.location.real,
                "im": z.location.imag,
                "multiplicity": z.multiplicity,
                "residual": z.residual,
                "cluster": z.cluster,
            },
        )
    return 0


def _cmd_scan(args, cfg, emit):
    ctx = cfg.context()
    measure = parse_measure_spec(_load_json(args.measure), ctx)
    rect = _parse_rect(args.rect)
    lmin = _parse_mpf(args.lmin, "--lmin")
    lmax = _parse_mpf(args.lmax, "--lmax")
    steps = args.steps
    if steps < 2:
        raise SchemaError("--steps must be at least 2")
    if not lmin < lmax:
        raise SchemaError("--lmin must be below --lmax")
    with ctx.workdps():
        grid = [lmin + (lmax - lmin) * k / (steps - 1) for k in range(steps)]

    jobs = [(measure, lam, rect, cfg.digits, cfg.target_tol) for lam in grid]
    rows = _pool_map(jobs, _scan_point_job, cfg.workers)
    flagged = monotonicity_warnings([(r["lambda"], r["all_real"]) for r in rows])
    for i, warning in flagged.items():
        rows[i]["warning"] = warning
    for row in rows:
        emit.record("scan_point", row)
    return 0


def _cmd_bisect(args, cfg, emit):
    ctx = cfg.context()
    measure = parse_measure_spec(_load_json(args.measure), ctx)
    rect = _parse_rect(args.rect)
    lo = _parse_mpf(args.lo, "--lo")
    hi = _parse_mpf(args.hi, "--hi")
    tol = _parse_mpf(args.tol, "--tol")
    if not tol > 0:
        raise SchemaError("--tol must be positive")
    est = bisect_lambda(measure, lo, hi, rect, tol, ctx)
    emit.record(
        "bisect",
        {"lambda_estimate": est, "abs_error_estimate": tol, "lo": lo, "hi": hi},
    )
    return 0


def _cmd_lehmer(args, cfg, emit):
    ctx = cfg.context()
    try:
        with open(args.zeros_file, "r", encoding="utf-8") as fh:
            table_text = fh.read()
    except OSError as e:
        raise SchemaError("cannot read %s: %s" % (args.zeros_file, e))
    table = ingest_zero_table(table_text, source_label=args.zeros_file, ctx=ctx)
    k_from, k_to = args.k_from, args.k_to
    if not 1 <= k_from <= k_to:
        raise SchemaError("need 1 <= --k-from <= --k-to")
    if k_to >= len(table):
        raise SchemaError(
            "--k-to %d needs ordinate %d, table has %d"
            % (k_to, k_to + 1, len(table))
        )
    radius = _parse_mpf(args.radius, "--radius")
    if not radius > 0:
        raise SchemaError("--radius must be positive")

    jobs = [(table, k, radius, cfg.digits, cfg.target_tol) for k in range(k_from, k_to + 1)]
    for kind, fields in _pool_map(jobs, _lehmer_job, cfg.workers):
        emit.record(kind, fields)
    return 0


def _cmd_flow(args, cfg, emit):
    from .flow import integrate_flow

    init = _parse_flow_init(_load_json(args.init))
    t_end = float(_parse_mpf(args.t_end, "--t-end"))
    step_control = float(_parse_mpf(args.step_control, "--step-control"))
    if not t_end > init.t:
        raise SchemaError("--t-end must exceed the initial time %r" % init.t)
    if not step_control > 0:
        raise SchemaError("--step-control must be positive")
    if args.checkpoints < 1:
        raise SchemaError("--checkpoints must be at least 1")
    states = integrate_flow(init, t_end, step_control=step_control, checkpoints=args.checkpoints)
    for s in states:
        fields = {"t": s.t}
        for i, x in enumerate(s.positions, start=1):
            fields["x%d" % i] = x
        fields["hamiltonian"] = s.hamiltonian
        fields["energy"] = s.energy
        emit.record("flow_state", fields)
    return 0


def _cmd_heat_residual(args, cfg, emit):
    from .flow import backward_heat_residual

    ctx = cfg.context()
    measure = parse_measure_spec(_load_json(args.measure), ctx)
    lam = _parse_mpf(args.lam, "--lambda")
    z = _parse_complex(args.z, "--z")
    h = _parse_mpf(args.h, "--h")
    residual = backward_heat_residual(measure, lam, z, h, ctx)
    with ctx.workdps():
        eval_noise = ctx.target_abs_tol / (h * h)
    emit.record(
        "heat_residual",
        {
            "lambda": lam,
            "z_re": z.real,
            "z_im": z.imag,
            "h": h,
            "residual": residual,
            "abs_error_estimate": eval_noise,
        },
    )
    return 0


def _cmd_leeyang(args, cfg, emit):
    from .leeyang import verify_leeyang

    ctx = cfg.context()
    system = parse_system_spec(_load_json(args.system))
    verdict = verify_leeyang(system, ctx)
    emit.record(
        "leeyang",
        {
            "n": system.n,
            "beta": system.beta,
            "route": verdict.route,
            "on_circle": verdict.on_circle,
            "max_deviation": verdict.max_deviation,
        },
    )
    for r in verdict.roots:
        with ctx.workdps():
            emit.record(
                "root",
                {
                    "re": r.real,
                    "im": r.imag,
                    "abs_deviation": abs(abs(r) - 1),
                },
            )
    return 0 if verdict.on_circle else 1


def _cmd_casebook(args, cfg, emit):
    from .casebook import CASE_IDS

    try:
        ids = CASE_IDS if args.case == "all" else (int(args.case),)
    except ValueError:
        ids = ()
    if not ids or ids[0] not in CASE_IDS:
        raise SchemaError(
            "--case: expected %d..%d or all, got %r" % (CASE_IDS[0], CASE_IDS[-1], args.case)
        )

    jobs = [(cid, cfg.digits, cfg.target_tol) for cid in ids]
    reports = _pool_map(jobs, _case_job, cfg.workers)
    all_passed = True
    for rep in reports:
        all_passed = all_passed and rep["passed"]
        emit.record(
            "case_report",
            {
                "case_id": rep["case_id"],
                "measure_kind": rep["measure_kind"],
                "claimed_tail": rep["claimed_tail"],
                "claimed_P": rep["claimed_P"],
                "passed": rep["passed"],
            },
        )
        for c in rep["checks"]:
            emit.record(
                "case_check",
                {
                    "case_id": rep["case_id"],
                    "name": c["name"],
                    "passed": c["passed"],
                    "details": c["details"],
                },
            )
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# argument surface
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse reads a separate argument as a value when it looks like a
    negative number, but before Python 3.13 only -1 and -0.5 look like one:
    "--lambda -1e-3" stopped with "expected one argument".  No dbnlab option
    starts with a digit, so an argument that starts with "-" and a digit, or
    "-." and a digit, is a value here (Python 3.13's own rule)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=25)
    common.add_argument("--target-tol", default="1e-12")
    common.add_argument("--format", choices=_FORMATS, default="json-lines")
    common.add_argument("--workers", type=int, default=1)

    p = _Parser(
        prog="dbnlab",
        description=(
            "Numerical laboratory for Gaussian-multiplied Fourier transforms "
            "of even measures: evaluation, zero reality verdicts, threshold "
            "estimation, zero dynamics, circle checks, and the casebook."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("phi", parents=[common], help="evaluate the even reference density")
    sp.add_argument("--u", required=True)
    sp.set_defaults(fn=_cmd_phi)

    sp = sub.add_parser("theta", parents=[common], help="theta sum and its scaling identity")
    sp.add_argument("--x", required=True)
    sp.set_defaults(fn=_cmd_theta)

    sp = sub.add_parser("xi", parents=[common], help="completed-zeta reference route")
    sp.add_argument("--z", required=True, metavar="RE[,IM]")
    sp.set_defaults(fn=_cmd_xi)

    sp = sub.add_parser("eval", parents=[common], help="evaluate a measure's transform")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--z", required=True, metavar="RE[,IM]")
    sp.set_defaults(fn=_cmd_eval)

    sp = sub.add_parser("zeros", parents=[common], help="count and locate zeros in a rectangle")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--rect", required=True, metavar="A,B,C,D")
    sp.set_defaults(fn=_cmd_zeros)

    sp = sub.add_parser("scan", parents=[common], help="reality verdicts over a multiplier grid")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--lmin", required=True)
    sp.add_argument("--lmax", required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--rect", required=True, metavar="A,B,C,D")
    sp.set_defaults(fn=_cmd_scan)

    sp = sub.add_parser("bisect", parents=[common], help="bisect the reality threshold")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--lo", required=True)
    sp.add_argument("--hi", required=True)
    sp.add_argument("--tol", required=True)
    sp.add_argument("--rect", required=True, metavar="A,B,C,D")
    sp.set_defaults(fn=_cmd_bisect)

    sp = sub.add_parser("lehmer", parents=[common], help="close-pair lower bounds from a zero table")
    sp.add_argument("--zeros-file", required=True)
    sp.add_argument("--k-from", type=int, required=True)
    sp.add_argument("--k-to", type=int, required=True)
    sp.add_argument("--radius", default="500")
    sp.set_defaults(fn=_cmd_lehmer)

    sp = sub.add_parser("flow", parents=[common], help="integrate the repulsive zero dynamics")
    sp.add_argument("--init", required=True)
    sp.add_argument("--t-end", required=True)
    sp.add_argument("--checkpoints", type=int, default=32)
    sp.add_argument("--step-control", default="1e-10")
    sp.set_defaults(fn=_cmd_flow)

    sp = sub.add_parser("heat-residual", parents=[common], help="backward-heat finite-difference residual")
    sp.add_argument("--measure", required=True)
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--z", required=True, metavar="RE[,IM]")
    sp.add_argument("--h", required=True)
    sp.set_defaults(fn=_cmd_heat_residual)

    sp = sub.add_parser("leeyang", parents=[common], help="circle check for a spin system")
    sp.add_argument("--system", required=True)
    sp.set_defaults(fn=_cmd_leeyang)

    sp = sub.add_parser("casebook", parents=[common], help="run the classification cases")
    sp.add_argument("--case", default="all", metavar="N|all")
    sp.set_defaults(fn=_cmd_casebook)

    return p


def command_surface(argv=None, stream=None) -> int:
    """Parse argv, run one subcommand, stream records; returns the exit code.

    0 on success, 1 when a requested check fails (off-circle system, failed
    case report) or the computation itself cannot deliver a result, 2 on
    usage and input-schema errors.
    """
    stream = stream if stream is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    try:
        cfg = RunConfig(
            digits=args.digits,
            target_tol=args.target_tol,
            fmt=args.format,
            workers=args.workers,
        )
        cfg.context()  # validate digits/tolerance pairing up front
        emit = _Emitter(cfg.fmt, stream, cfg.digits)
        emit.meta(
            command=args.command,
            digits=cfg.digits,
            target_tol=cfg.target_tol,
            workers=cfg.workers,
        )
        # flag values parse at the configured precision, not the ambient one
        with mpmath.mp.workdps(cfg.digits):
            return args.fn(args, cfg, emit)
    except SchemaError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except DbnlabError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(command_surface())


if __name__ == "__main__":
    main()
