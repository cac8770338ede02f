"""Command surface: schemas, records, formats, exit codes, parallelism.

Runs the surface in-process against temp measure/system files and asserts
on the streamed records.  Determinism is checked by comparing full outputs
with the timestamp stripped; the parallel paths must reproduce the
sequential records exactly.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf

from dbnlab.cli import (
    RunConfig,
    _case_job,
    _load_json,
    command_surface,
    parse_measure_spec,
    parse_system_spec,
)
from dbnlab import cli
from dbnlab.casebook import CASE_IDS
from dbnlab.precision import PrecisionContext, SchemaError


def run_cli(*argv):
    buf = io.StringIO()
    code = command_surface(list(argv), stream=buf)
    return code, buf.getvalue()


def records(text, kind=None):
    out = []
    for line in text.splitlines():
        rec = json.loads(line)
        if kind is None or rec["record"] == kind:
            out.append(rec)
    return out


def strip_timestamp(text):
    lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            if line.startswith("# timestamp="):
                continue
            lines.append(line)
            continue
        rec = json.loads(line)
        rec.pop("timestamp", None)
        lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(lines)


@pytest.fixture()
def two_atom_file(tmp_path):
    p = tmp_path / "two_atom.json"
    p.write_text(
        json.dumps(
            {
                "kind": "SymmetricAtoms",
                "atoms": [[0, 0.6666666666666667], [1, 0.3333333333333333]],
            }
        )
    )
    return str(p)


@pytest.fixture()
def cos_file(tmp_path):
    p = tmp_path / "cos.json"
    p.write_text(json.dumps({"kind": "SymmetricAtoms", "atoms": [[1, 1]]}))
    return str(p)


@pytest.fixture()
def gaussian_file(tmp_path):
    p = tmp_path / "gauss.json"
    p.write_text(json.dumps({"kind": "Gaussian", "params": {"b0": 1}}))
    return str(p)


# ---------------------------------------------------------------------------
# configuration and schemas
# ---------------------------------------------------------------------------


class TestRunConfig:
    def test_invariants(self):
        with pytest.raises(SchemaError):
            RunConfig(digits=14)
        with pytest.raises(SchemaError):
            RunConfig(workers=0)
        with pytest.raises(SchemaError):
            RunConfig(fmt="yaml")
        cfg = RunConfig()
        assert cfg.digits >= 15 and cfg.workers >= 1

    def test_tolerance_needs_headroom(self):
        with pytest.raises(SchemaError):
            RunConfig(digits=15, target_tol="1e-30").context()

    def test_context_round_trip(self):
        ctx = RunConfig(digits=20, target_tol="1e-10").context()
        assert isinstance(ctx, PrecisionContext)
        assert ctx.working_digits == 20


class TestMeasureSchema:
    def setup_method(self):
        self.ctx = PrecisionContext(20, mpf("1e-10"))

    def test_atoms_round_trip(self):
        m = parse_measure_spec(
            {"kind": "SymmetricAtoms", "atoms": [[0, 0.5], [1.5, 0.25]]}, self.ctx
        )
        assert m.kind == "SymmetricAtoms"
        assert len(m.atoms) == 2

    def test_named_density(self):
        m = parse_measure_spec({"kind": "Gaussian", "params": {"b0": 2}}, self.ctx)
        assert m.density_kind == "Gaussian"
        m = parse_measure_spec(
            {
                "kind": "DBNClass",
                "params": {"K": 1, "m": 1, "alpha": 1, "beta": 0, "a_list": [1, 2]},
            },
            self.ctx,
        )
        assert m.density_kind == "DBNClass"
        assert m.param("a_list") == (mpf(1), mpf(2))

    def test_convolution(self):
        m = parse_measure_spec(
            {
                "kind": "GaussianConvolution",
                "atoms": [[0, 0.6], [1, 0.4]],
                "params": {"b0": 10},
            },
            self.ctx,
        )
        assert m.kind == "GaussianConvolution"
        assert m.b0 == 10

    @pytest.mark.parametrize(
        "spec,path",
        [
            ([1, 2], "$:"),
            ({"atoms": [[1, 1]]}, "$.kind"),
            ({"kind": "SymmetricAtoms"}, "$.atoms"),
            ({"kind": "SymmetricAtoms", "atoms": []}, "$.atoms"),
            ({"kind": "SymmetricAtoms", "atoms": [[1]]}, "$.atoms[0]"),
            ({"kind": "SymmetricAtoms", "atoms": [[1, "x"]]}, "$.atoms[0][1]"),
            ({"kind": "Gaussian", "params": {"b0": True}}, "$.params.b0"),
            ({"kind": "Gaussian", "params": {"b0": 1}, "x": 1}, "$.x"),
            ({"kind": "Gaussian", "atoms": [[1, 1]], "params": {"b0": 1}}, "$.atoms"),
            ({"kind": "NoSuchKind", "params": {}}, "$:"),
            ({"kind": "GaussianConvolution", "atoms": [[1, 1]], "params": {}}, "$.params"),
            ({"kind": "PolyaQuartic", "params": {"a": 1}}, "missing parameter params.b"),
            (
                {
                    "kind": "DBNClass",
                    "params": {"K": 1, "m": 1, "alpha": 1, "beta": 0, "a_list": 2},
                },
                "params.a_list must be a list of finite numbers",
            ),
            ({"kind": "Gaussian", "params": {"b0": 1, "b": 3}}, "unknown parameter params.b"),
            ({"kind": "PolyaQuartic", "params": {"a": 1, "b": 0, "c": 1, "q": 0}}, "q >= 1"),
            ({"kind": "Gaussian", "params": {"b0": "inf"}}, "params.b0 must be a finite number"),
            ({"kind": "SymmetricAtoms", "atoms": [[1, "inf"]]}, "SymmetricAtoms requires"),
            (
                {"kind": "GaussianConvolution", "atoms": [[0, 1], [1, 1]], "params": {"b0": "inf"}},
                "GaussianConvolution requires a finite b0 > 0",
            ),
        ],
    )
    def test_violations_name_the_path(self, spec, path):
        with pytest.raises(SchemaError) as err:
            parse_measure_spec(spec, self.ctx)
        assert path in str(err.value)


class TestSystemSchema:
    def test_minimal(self):
        s = parse_system_spec({"couplings": [[0, 1], [1, 0]]})
        assert s.n == 2 and s.beta == 1.0
        assert s.site_measure.kind == "PlusMinusOne"

    def test_full(self):
        s = parse_system_spec(
            {
                "couplings": [[0]],
                "beta": 0.5,
                "site": {"kind": "Phi4", "params": {"a": 1, "b": 1}},
                "field_weights": [1],
                "search_mode": False,
            }
        )
        assert s.site_measure.kind == "Phi4"

    def test_violations(self):
        with pytest.raises(SchemaError) as err:
            parse_system_spec({"couplings": [[0, -1], [-1, 0]]})
        assert "$.couplings" in str(err.value)
        with pytest.raises(SchemaError) as err:
            parse_system_spec({"couplings": [[0]], "site": {"kind": "Cubic"}})
        assert "$.site.kind" in str(err.value)
        with pytest.raises(SchemaError):
            parse_system_spec({"beta": 1})
        with pytest.raises(SchemaError) as err:
            parse_system_spec({"couplings": [[0]], "extra": 1})
        assert "$.extra" in str(err.value)

    def test_site_params_keep_working_precision(self, tmp_path):
        # a site parameter is read at the working precision, as measure
        # parameters are, not rounded to a binary double on the way
        f = tmp_path / "sys.json"
        f.write_text(json.dumps(
            {"couplings": [[0]], "site": {"kind": "Phi6", "params": {"a": 1, "b": 0, "c": "0.1"}}}
        ))
        with mpmath.mp.workdps(30):
            s = parse_system_spec(_load_json(str(f)))
            assert abs(s.site_measure.density.param("c") - mpf("0.1")) < mpf("1e-29")

    @pytest.mark.parametrize(
        "spec,path",
        [
            ({"couplings": [[0]], "site": {"kind": "Phi4", "params": {"a": 0, "b": 1}}},
             "$.site.params.a"),
            ({"couplings": [[0]], "site": {"kind": "Phi4", "params": {"a": "inf", "b": 1}}},
             "$.site.params.a"),
            ({"couplings": [[0]], "site": {"kind": "Phi6", "params": {"a": 1, "b": 0, "c": "nan"}}},
             "$.site.params.c"),
            ({"couplings": [[0]], "beta": -1}, "$.beta"),
            ({"couplings": [[0]], "field_weights": [-1]}, "$.field_weights"),
        ],
    )
    def test_violations_name_the_path(self, spec, path, tmp_path, capsys):
        p = tmp_path / "sys.json"
        p.write_text(json.dumps(spec))
        code, _ = run_cli(
            "leeyang", "--system", str(p), "--digits", "20", "--target-tol", "1e-10"
        )
        assert code == 2
        assert path in capsys.readouterr().err


# ---------------------------------------------------------------------------
# point evaluations
# ---------------------------------------------------------------------------


class TestPointCommands:
    def test_phi_record(self):
        code, out = run_cli("phi", "--u", "0", "--digits", "20", "--target-tol", "1e-15")
        assert code == 0
        (rec,) = records(out, "phi")
        assert str(rec["value"]).startswith("0.8933938009342468")
        assert "abs_error_estimate" in rec

    def test_a_non_finite_tolerance_is_a_usage_error(self, capsys):
        code, out = run_cli("phi", "--u", "0.3", "--target-tol", "inf")
        assert code == 2 and "target_abs_tol must be finite" in capsys.readouterr().err

    def test_a_tolerance_below_the_float_range(self):
        code, out = run_cli("phi", "--u", "0.3", "--digits", "500", "--target-tol", "1e-400")
        assert code == 0
        (rec,) = records(out, "phi")
        assert str(rec["value"]).startswith("0.36697428938460382690")

    def test_theta_identity_record(self):
        code, out = run_cli("theta", "--x", "2", "--digits", "25", "--target-tol", "1e-15")
        assert code == 0
        (rec,) = records(out, "theta")
        assert mpf(rec["identity_residual"]) < mpf("1e-12")

    def test_xi_near_first_zero(self):
        code, out = run_cli("xi", "--z", "14.134725", "--digits", "20", "--target-tol", "1e-12")
        assert code == 0
        (rec,) = records(out, "xi")
        assert abs(mpf(rec["value_re"])) < mpf("1e-6")
        assert abs(mpf(rec["value_im"])) < mpf("1e-12")

    def test_eval_flags_parse_at_config_precision(self, two_atom_file):
        code, out = run_cli(
            "eval", "--measure", two_atom_file, "--lambda", "0.1", "--z", "0.25,0.5",
            "--digits", "25", "--target-tol", "1e-12",
        )
        assert code == 0
        (rec,) = records(out, "transform")
        assert rec["lambda"] == "0.1"
        assert rec["z_im"] == "0.5"
        assert "abs_error_estimate" in rec and "n_evals" in rec


# ---------------------------------------------------------------------------
# zeros / scan / bisect
# ---------------------------------------------------------------------------


class TestZeroCommands:
    def test_zero_free_region_is_empty(self, cos_file):
        code, out = run_cli(
            "zeros", "--measure", cos_file, "--lambda", "0",
            "--rect", "0.2,1.2,-0.5,0.5", "--digits", "20", "--target-tol", "1e-12",
        )
        assert code == 0
        (summary,) = records(out, "zero_set")
        assert summary["count"] == 0
        assert records(out, "zero") == []

    def test_cos_pair_located(self, cos_file):
        code, out = run_cli(
            "zeros", "--measure", cos_file, "--lambda", "0",
            "--rect=-2,2,-1,1", "--digits", "20", "--target-tol", "1e-12",
        )
        assert code == 0
        (summary,) = records(out, "zero_set")
        assert summary["count"] == 2
        zs = records(out, "zero")
        assert len(zs) == 2
        with mpmath.mp.workdps(25):
            res = sorted(mpf(z["re"]) for z in zs)
            assert abs(res[1] - mpmath.pi / 2) < mpf("1e-10")
        assert all("residual" in z for z in zs)

    def test_scan_parallel_matches_sequential(self, two_atom_file):
        args = (
            "scan", "--measure", two_atom_file, "--lmin", "0.5", "--lmax", "1",
            "--steps", "3", "--rect=-8,8,-2,2", "--digits", "20",
            "--target-tol", "1e-10",
        )
        code_a, out_a = run_cli(*args)
        code_b, out_b = run_cli(*args, "--workers", "3")
        assert code_a == code_b == 0
        seq = records(out_a, "scan_point")
        par = records(out_b, "scan_point")
        assert [r["all_real"] for r in seq] == [False, True, True]
        assert seq == par
        assert all("margin" in r for r in seq)

    def test_scan_usage_errors(self, two_atom_file):
        code, _ = run_cli(
            "scan", "--measure", two_atom_file, "--lmin", "1", "--lmax", "0",
            "--steps", "3", "--rect=-8,8,-2,2",
        )
        assert code == 2
        code, _ = run_cli(
            "scan", "--measure", two_atom_file, "--lmin", "0", "--lmax", "1",
            "--steps", "1", "--rect=-8,8,-2,2",
        )
        assert code == 2

    def test_bisect_two_atom_threshold(self, two_atom_file):
        code, out = run_cli(
            "bisect", "--measure", two_atom_file, "--lo", "0", "--hi", "1",
            "--tol", "1e-6", "--rect=-8,8,-2,2", "--digits", "20",
            "--target-tol", "1e-10",
        )
        assert code == 0
        (rec,) = records(out, "bisect")
        with mpmath.mp.workdps(25):
            assert abs(mpf(rec["lambda_estimate"]) - mpmath.log(2)) < mpf("1e-6")
        assert mpf(rec["abs_error_estimate"]) == mpf("1e-6")

    @pytest.mark.parametrize(
        "argv, kind, field",
        [
            (["eval", "--lambda", "-1e-3", "--z", "1"], "transform", "lambda"),
            (["bisect", "--lo", "-1e-3", "--hi", "1", "--tol", "1e-3", "--rect", "-8,8,-2,2"],
             "bisect", "lo"),
        ],
    )
    def test_a_negative_number_in_scientific_notation_is_a_flag_value(
        self, two_atom_file, argv, kind, field
    ):
        code, out = run_cli(
            argv[0], "--measure", two_atom_file, *argv[1:],
            "--digits", "20", "--target-tol", "1e-10",
        )
        assert code == 0
        (rec,) = records(out, kind)
        assert mpf(rec[field]) == mpf("-0.001")

    def test_bisect_broken_bracket_is_failure_not_usage(self, two_atom_file):
        code, _ = run_cli(
            "bisect", "--measure", two_atom_file, "--lo", "0.8", "--hi", "1",
            "--tol", "1e-4", "--rect=-8,8,-2,2", "--digits", "20",
            "--target-tol", "1e-10",
        )
        assert code == 1


# ---------------------------------------------------------------------------
# lehmer / flow / heat
# ---------------------------------------------------------------------------


class TestTableAndFlowCommands:
    def test_lehmer_records_and_refusals(self):
        args = (
            "lehmer", "--zeros-file", "tests/data/xi_zeros_100.txt",
            "--k-from", "33", "--k-to", "34", "--radius", "100",
            "--digits", "25", "--target-tol", "1e-15",
        )
        code, out = run_cli(*args)
        assert code == 0
        (refused,) = records(out, "lehmer_refused")
        assert refused["k"] == 33
        (pair,) = records(out, "lehmer_pair")
        assert pair["k"] == 34
        assert mpf(pair["lambda_k"]) < 0
        assert mpf(pair["g_k_tail_estimate"]) > 0

        code_b, out_b = run_cli(*args, "--workers", "2")
        assert code_b == 0
        assert records(out_b, "lehmer_pair") == [pair]
        assert records(out_b, "lehmer_refused") == [refused]

    def test_lehmer_range_validation(self):
        code, _ = run_cli(
            "lehmer", "--zeros-file", "tests/data/xi_zeros_100.txt",
            "--k-from", "90", "--k-to", "200",
        )
        assert code == 2

    @pytest.mark.parametrize("radius", ["0", "-1"])
    def test_lehmer_non_positive_radius_exits_two(self, radius, capsys):
        # refused once as the flag is read: no division by the radius, and
        # no identical refusal record per k
        code, out = run_cli(
            "lehmer", "--zeros-file", "tests/data/xi_zeros_100.txt",
            "--k-from", "33", "--k-to", "34", "--radius=%s" % radius,
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --radius")
        assert "Traceback" not in err and records(out, "meta") == records(out)

    def test_lehmer_non_finite_ordinate_exits_two(self, tmp_path, capsys):
        table = tmp_path / "zeros.txt"
        table.write_text("1\n2\nnan\n3\ninf\n")
        code, out = run_cli(
            "lehmer", "--zeros-file", str(table), "--k-from", "1", "--k-to", "2",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "line 3" in err and "Traceback" not in err
        assert records(out, "lehmer_pair") == []

    def test_flow_csv_columns(self, tmp_path):
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"t": 0, "positions": [-1, 1]}))
        code, out = run_cli(
            "flow", "--init", str(init), "--t-end", "1", "--checkpoints", "4",
            "--format", "csv",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "t,x1,x2,hamiltonian,energy"
        assert len(lines) == 1 + 5
        hams = [float(l.split(",")[3]) for l in lines[1:]]
        assert hams == sorted(hams, reverse=True)
        import math

        last = [float(v) for v in lines[-1].split(",")]
        assert abs(last[2] - math.sqrt(3)) < 1e-6

    def test_flow_bare_array_init(self, tmp_path):
        init = tmp_path / "init.json"
        init.write_text("[0.0, 1.0, 2.0]")
        code, out = run_cli("flow", "--init", str(init), "--t-end", "0.5", "--checkpoints", "2")
        assert code == 0
        assert len(records(out, "flow_state")) == 3

    def test_flow_rejects_unsorted(self, tmp_path):
        init = tmp_path / "init.json"
        init.write_text("[1.0, 0.0]")
        code, _ = run_cli("flow", "--init", str(init), "--t-end", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "flag, init_spec, extra",
        [
            ("--step-control", [0.0, 1.0], ["--t-end", "1", "--step-control", "0"]),
            ("--step-control", [0.0, 1.0], ["--t-end", "1", "--step-control=-1e-8"]),
            ("--t-end", [0.0, 1.0], ["--t-end", "0"]),
            ("--t-end", [0.0, 1.0], ["--t-end", "-1"]),
            ("--t-end", {"t": 2, "positions": [0.0, 1.0]}, ["--t-end", "1.5"]),
        ],
    )
    def test_flow_out_of_range_flags_exit_two(self, flag, init_spec, extra, tmp_path, capsys):
        # refused as the flags are read, naming the flag, like --checkpoints 0;
        # not left to the integrator's DomainError (exit 1)
        init = tmp_path / "init.json"
        init.write_text(json.dumps(init_spec))
        code, out = run_cli("flow", "--init", str(init), *extra)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: %s" % flag)
        assert "Traceback" not in err and records(out, "flow_state") == []

    def test_heat_residual_record(self, gaussian_file):
        code, out = run_cli(
            "heat-residual", "--measure", gaussian_file, "--lambda", "0.2",
            "--z", "1", "--h", "0.01", "--digits", "25", "--target-tol", "1e-15",
        )
        assert code == 0
        (rec,) = records(out, "heat_residual")
        assert mpf(rec["residual"]) < mpf("1e-3")
        assert "abs_error_estimate" in rec


# ---------------------------------------------------------------------------
# leeyang / casebook
# ---------------------------------------------------------------------------


class TestCheckCommands:
    def test_ferromagnet_on_circle(self, tmp_path):
        f = tmp_path / "sys.json"
        f.write_text(json.dumps({"couplings": [[0, 0.5], [0.5, 0]], "beta": 1.2}))
        code, out = run_cli("leeyang", "--system", str(f), "--digits", "20", "--target-tol", "1e-10")
        assert code == 0
        (rec,) = records(out, "leeyang")
        assert rec["on_circle"] is True
        roots = records(out, "root")
        assert len(roots) == 4
        assert all(mpf(r["abs_deviation"]) < mpf("1e-10") for r in roots)

    def test_planted_violation_exits_one(self, tmp_path):
        f = tmp_path / "sys.json"
        f.write_text(
            json.dumps(
                {"couplings": [[0, -2], [-2, 0]], "beta": 1, "search_mode": True}
            )
        )
        code, out = run_cli("leeyang", "--system", str(f), "--digits", "20", "--target-tol", "1e-10")
        assert code == 1
        (rec,) = records(out, "leeyang")
        assert rec["on_circle"] is False
        assert mpf(rec["max_deviation"]) > 1

    def test_casebook_single_case_stream(self):
        code, out = run_cli("casebook", "--case", "2", "--digits", "20", "--target-tol", "1e-10")
        assert code == 0
        (rep,) = records(out, "case_report")
        assert rep["case_id"] == 2 and rep["passed"] is True
        assert "0.693147" in out
        checks = records(out, "case_check")
        assert [c["name"] for c in checks] == [
            "bisection_near_log2",
            "closed_form_root_criterion",
        ]

    def test_casebook_case_seven_report_only(self):
        code, out = run_cli("casebook", "--case", "7")
        assert code == 0
        (rep,) = records(out, "case_report")
        assert rep["measure_kind"] is None
        assert records(out, "case_check") == []

    def test_casebook_bad_case_is_usage_error(self):
        assert run_cli("casebook", "--case", "12")[0] == 2
        assert run_cli("casebook", "--case", "x")[0] == 2

    def test_casebook_cases_come_from_the_casebook(self, monkeypatch):
        # --case 10 is refused before any job runs; "all" runs exactly the
        # casebook's cases
        ran = []
        monkeypatch.setattr(cli, "_pool_map", lambda jobs, fn, workers: ran.append(jobs) or [])
        assert run_cli("casebook", "--case", "10")[0] == 2
        assert ran == []
        assert run_cli("casebook", "--case", "all")[0] == 0
        assert [job[0] for job in ran[0]] == list(CASE_IDS)

    def test_case_job_is_plain_data(self):
        rep = _case_job((7, 20, "1e-10"))
        json.dumps(rep)
        assert rep["case_id"] == 7


# ---------------------------------------------------------------------------
# formats, determinism, exit codes
# ---------------------------------------------------------------------------


class TestOutputContract:
    def test_json_lines_deterministic_modulo_timestamp(self, cos_file):
        args = (
            "zeros", "--measure", cos_file, "--lambda", "0",
            "--rect=-2,2,-1,1", "--digits", "20", "--target-tol", "1e-12",
        )
        _, out_a = run_cli(*args)
        _, out_b = run_cli(*args)
        assert out_a != out_b  # the timestamp moved
        assert strip_timestamp(out_a) == strip_timestamp(out_b)

    def test_csv_meta_as_comments_and_header_switch(self, cos_file):
        code, out = run_cli(
            "zeros", "--measure", cos_file, "--lambda", "0",
            "--rect=-2,2,-1,1", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# command=zeros")
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "lambda,count"
        assert data[2] == "re,im,multiplicity,residual,cluster"

    def test_schema_error_reports_path_and_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "SymmetricAtoms", "atoms": [[0, "x"]]}))
        code, _ = run_cli("eval", "--measure", str(bad), "--lambda", "0", "--z", "1")
        assert code == 2
        assert "$.atoms[0][1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--lambda", ["eval", "--measure", "{m}", "--lambda", "nan", "--z", "1"]),
            ("--lambda", ["eval", "--measure", "{m}", "--lambda", "inf", "--z", "1"]),
            ("--z", ["eval", "--measure", "{m}", "--lambda", "0", "--z", "nan"]),
            ("--h", ["heat-residual", "--measure", "{m}", "--lambda", "0", "--z", "1", "--h", "nan"]),
            ("--h", ["heat-residual", "--measure", "{m}", "--lambda", "0", "--z", "1", "--h", "inf"]),
            ("--radius", [
                "lehmer", "--zeros-file", "tests/data/xi_zeros_100.txt",
                "--k-from", "33", "--k-to", "34", "--radius", "nan",
            ]),
            ("--rect", ["zeros", "--measure", "{m}", "--lambda", "0", "--rect=-inf,inf,-1,1"]),
            ("--lambda", ["zeros", "--measure", "{m}", "--lambda", "nan", "--rect=-2,2,-1,1"]),
            ("--hi", [
                "bisect", "--measure", "{m}", "--lo", "0", "--hi", "inf", "--tol", "1e-6",
                "--rect=-8,8,-2,2",
            ]),
            ("--lmax", [
                "scan", "--measure", "{m}", "--lmin", "0", "--lmax", "inf", "--steps", "3",
                "--rect=-8,8,-2,2",
            ]),
            ("--z", ["xi", "--z", "nan"]),
            ("--t-end", ["flow", "--init", "{init}", "--t-end", "nan"]),
            ("--t-end", ["flow", "--init", "{init}", "--t-end", "inf"]),
            ("--step-control", [
                "flow", "--init", "{init}", "--t-end", "1", "--step-control", "nan",
            ]),
        ],
    )
    def test_non_finite_flags_exit_two(self, flag, argv, two_atom_file, tmp_path, capsys):
        # no flag takes nan or an infinity: each is refused as it is parsed,
        # not printed as a value and not left to fail further in
        init = tmp_path / "init.json"
        init.write_text("[0.0, 1.0]")
        code, out = run_cli(
            *[a.replace("{m}", two_atom_file).replace("{init}", str(init)) for a in argv]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: %s: expected a finite number" % flag)
        assert "Traceback" not in err and records(out, "meta") == records(out)

    def test_missing_file_exits_two(self):
        assert run_cli("eval", "--measure", "/nope.json", "--lambda", "0", "--z", "1")[0] == 2

    def test_entireness_failure_exits_one(self, gaussian_file):
        assert run_cli("eval", "--measure", gaussian_file, "--lambda", "2", "--z", "1")[0] == 1

    def test_usage_surface(self):
        assert run_cli("nonsense")[0] == 2
        assert run_cli("phi", "--u", "0", "--digits", "10")[0] == 2
        assert run_cli("phi", "--u", "0", "--workers", "0")[0] == 2
        assert run_cli("--help")[0] == 0


def test_importing_the_cli_leaves_numpy_out():
    # only the flow and heat-residual jobs use numpy, and only the casebook
    # and leeyang commands their modules; every other command's interpreter
    # starts without them
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, dbnlab.cli; "
        "print([m for m in ('numpy', 'dbnlab.casebook', 'dbnlab.leeyang') if m in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
