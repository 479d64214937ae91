import json
import math
import sys

import numpy as np
import pytest

from kernelbasis.cauchy import cauchy_kernel, cauchy_real_basis, cauchy_truncated
from kernelbasis.cli import main
from kernelbasis.gaussian import GaussianScale, gaussian_kernel, gaussian_psi, gaussian_truncated
from kernelbasis.matern import (
    MaternBasisId,
    MaternOrder,
    MaternTruncation,
    matern_kernel,
    matern_psi,
    matern_truncated,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_matern_basis_grid_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--family", "matern", "--nu", "2", "--what", "basis",
            "--class", "plus", "--m", "0..6", "--grid", "-1:6:701",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 702  # header + 701 rows
        header = lines[0].split(",")
        assert len(header) == 8 and header[0] == "t"
        first = lines[1].split(",")
        assert float(first[0]) == -1.0
        assert all(float(v) == 0.0 for v in first[1:])  # left of the origin

    def test_gaussian_basis_six_functions(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--family", "gaussian", "--what", "basis",
            "--m", "0..5", "--grid", "-5:5:1001",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1002
        assert len(lines[1].split(",")) == 7

    def test_cauchy_truncated_n1_u0_is_rational(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--family", "cauchy", "--what", "truncated",
            "--n", "1", "--u", "0", "--grid", "-4:4:801",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        for t_str, val_str in rows[::97]:
            t = float(t_str)
            assert float(val_str) == pytest.approx(1.0 / (t * t + 1.0), abs=1e-12)

    def test_kernel_csv_roundtrip_precision(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--family", "gaussian", "--what", "kernel",
            "--u", "0", "--grid", "0:1:2",
        )
        rows = out.strip().split("\n")
        assert float(rows[2].split(",")[1]) == math.exp(-0.5)

    def test_jsonl_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--family", "cauchy", "--what", "kernel",
            "--grid", "0:2:3", "--format", "jsonl",
        )
        assert code == 0
        recs = [json.loads(line) for line in out.strip().split("\n")]
        assert recs[0] == {"t": 0.0, "kernel": 1.0}

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "data.csv"
        code, out, _ = run_cli(
            capsys, "eval", "--family", "gaussian", "--what", "kernel",
            "--grid", "0:1:5", "--out", str(target),
        )
        assert code == 0 and out == ""
        assert len(target.read_text().strip().split("\n")) == 6

    @pytest.mark.parametrize("family", ["matern", "cauchy", "gaussian"])
    def test_kernel_and_truncated_match_family_functions(self, capsys, family):
        grid = np.linspace(-2.0, 2.0, 9)
        lam, n, u = 1.3, 5, 0.4
        if family == "matern":
            order = MaternOrder(2, lam)
            kernel = matern_kernel(order, grid, u)
            trunc = matern_truncated(MaternTruncation(order, n), grid, u)
        elif family == "cauchy":
            kernel = cauchy_kernel(lam, grid, u)
            trunc = cauchy_truncated(lam, n, grid, u)
        else:
            kernel = gaussian_kernel(GaussianScale(lam), grid, u)
            trunc = gaussian_truncated(GaussianScale(lam), n, grid, u)
        for what, header, vals in (("kernel", "kernel", kernel),
                                   ("truncated", f"truncated_n{n}", trunc)):
            code, out, _ = run_cli(
                capsys, "eval", "--family", family, "--nu", "2", "--what", what,
                "--lambda", str(lam), "--n", str(n), "--u", str(u), "--grid", "-2:2:9",
            )
            assert code == 0
            expected = [f"t,{header}"] + [f"{t:.17g},{v:.17g}" for t, v in zip(grid, vals)]
            assert out == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("argv, m_range, evaluator", [
        *[(["--family", "matern", "--nu", str(nu), "--lambda", "0.7", "--class", kind],
           range(nu + 1) if kind == "null" else range(6),
           lambda m, t, nu=nu, kind=kind: matern_psi(
               MaternOrder(nu, 0.7), MaternBasisId(kind, m), t))
          for nu in (0, 3) for kind in ("plus", "minus", "null")],
        *[(["--family", "cauchy", "--lambda", "2", "--class", kind], range(6),
           lambda m, t, kind=kind: cauchy_real_basis(kind, m, 2.0 * t))
          for kind in ("alpha", "beta")],
        (["--family", "gaussian", "--lambda", "1.3"], range(6),
         lambda m, t: gaussian_psi(m, t, GaussianScale(1.3))),
    ], ids=[f"matern_nu{nu}_{kind}" for nu in (0, 3) for kind in ("plus", "minus", "null")]
        + ["cauchy_alpha", "cauchy_beta", "gaussian"])
    def test_basis_columns_equal_scalar_evaluators(self, capsys, argv, m_range, evaluator):
        grid = np.linspace(-3.0, 3.0, 41)
        code, out, _ = run_cli(capsys, "eval", *argv, "--what", "basis",
                               "--m", f"{m_range[0]}..{m_range[-1]}", "--grid", "-3:3:41")
        assert code == 0
        header, *rows = out.strip().split("\n")
        names = header.split(",")[1:]
        assert [name.rsplit("_", 1)[1] for name in names] == [str(m) for m in m_range]
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.array_equal(table[:, 0], grid)
        for j, m in enumerate(m_range):
            assert np.array_equal(table[:, j + 1], evaluator(m, grid)), names[j]

    @pytest.mark.parametrize("argv, missing", [
        (["--family", "matern", "--nu", "2", "--class", "null", "--m", "1..3"], "null_3"),
        (["--family", "matern", "--class", "alpha"], "alpha_0"),
        (["--family", "cauchy", "--class", "plus"], "plus_0"),
        (["--family", "gaussian", "--class", "beta"], "beta_0"),
        (["--family", "gaussian", "--m=-2..1"], "psi_-2"),
        (["--family", "matern", "--nu", "1", "--m", "-1"], "plus_-1"),
    ], ids=["null_above_nu", "alpha_for_matern", "plus_for_cauchy", "class_for_gaussian",
            "negative_gaussian_index", "negative_matern_index"])
    def test_missing_basis_column_is_usage_error(self, capsys, argv, missing):
        code, out, err = run_cli(capsys, "eval", *argv, "--what", "basis", "--grid", "0:1:3")
        assert code == 2 and out == ""
        assert f"no basis column {missing}" in err

    def test_nonfinite_basis_grid_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--family", "gaussian", "--what", "basis",
                                 "--grid", "nan:1:2")
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("what", ["kernel", "truncated", "basis"])
    def test_nonfinite_grid_is_the_same_usage_error_for_every_what(self, capsys, what):
        code, out, err = run_cli(capsys, "eval", "--family", "matern", "--what", what,
                                 "--grid", "nan:1:2")
        assert code == 2 and out == ""
        assert err == "usage error: --grid points must be finite\n"

    @pytest.mark.parametrize("what", ["kernel", "truncated"])
    def test_nan_second_argument_is_usage_error(self, capsys, what):
        code, out, err = run_cli(capsys, "eval", "--family", "matern", "--what", what,
                                 "--grid", "0:1:2", "--u", "nan")
        assert code == 2 and out == ""
        assert err == "usage error: u is NaN at 2 of 2 points\n"

    @pytest.mark.parametrize("what", ["kernel", "truncated", "basis"])
    @pytest.mark.parametrize("family", ["matern", "cauchy", "gaussian"])
    def test_infinite_lambda_is_usage_error(self, capsys, family, what):
        code, out, err = run_cli(
            capsys, "eval", "--family", family, "--what", what, "--lambda", "inf",
            "--grid", "0:1:2",
        )
        assert code == 2 and out == ""
        assert "positive and finite" in err

    def test_order_past_the_cap_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--family", "matern", "--nu", "1001",
                                 "--what", "kernel", "--grid", "0:1:2")
        assert code == 2 and out == ""
        assert err == "usage error: nu=1001 exceeds the cap 1000\n"

    def test_bad_grid_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--family", "gaussian", "--what", "kernel", "--grid", "oops"])
        assert exc.value.code == 2

    def test_missing_args_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--family", "gaussian"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--grid", "0:1:0", "grid count must be >= 1"),
        ("--m", "5..2", "--m must be an int or lo..hi, got '5..2'"),
        ("--m", "x", "--m must be an int or lo..hi, got 'x'"),
    ])
    def test_bad_grid_count_or_index_range_is_usage_error(self, capsys, flag, value, message):
        argv = ["eval", "--family", "gaussian", "--what", "basis", "--grid", "0:1:2", flag, value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_closed_stdout_ends_quietly(self, monkeypatch):
        # a reader that stops early (as `| head` does) is not an error
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError

            def close(self):
                raise OSError

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["eval", "--family", "gaussian", "--what", "kernel", "--grid", "0:1:3"]) == 0


class TestVerify:
    def test_identity_suite_passes(self, capsys, tmp_path):
        report = tmp_path / "report.jsonl"
        code, out, err = run_cli(
            capsys, "verify", "identities", "--report", str(report)
        )
        assert code == 0
        assert "checks passed" in out
        recs = [json.loads(line) for line in report.read_text().strip().split("\n")]
        assert len(recs) >= 40
        assert all(r["passed"] for r in recs)
        names = [r["check_name"] for r in recs]
        assert names == sorted(names)
        assert set(recs[0]) == {
            "check_name", "computed", "reference", "abs_error",
            "tolerance", "passed", "metadata",
        }

    def test_verify_all_passes_with_many_checks(self, capsys, tmp_path):
        report = tmp_path / "all.jsonl"
        code, out, _ = run_cli(capsys, "verify", "all", "--report", str(report))
        assert code == 0
        lines = report.read_text().strip().split("\n")
        assert len(lines) >= 60
        assert all(json.loads(line)["passed"] for line in lines)

    def test_nonfinite_result_reported_as_fail(self, capsys, monkeypatch):
        import kernelbasis.cli as cli_mod
        from kernelbasis.report import VerificationReport

        reports = [
            VerificationReport("demo/nan", math.nan, 1.0, 1e-8),
            VerificationReport("demo/inf", math.inf, 0.0, 1e-8),
        ]
        monkeypatch.setattr(cli_mod, "run_suite", lambda *args, **kwargs: reports)
        code, out, err = run_cli(capsys, "verify", "identities")
        assert code == 1
        assert "FAIL demo/nan (error nan" in out
        assert "FAIL demo/inf (error inf" in out
        assert "0/2 checks passed" in out
        assert "failed: demo/nan" in err

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "everything"])
        assert exc.value.code == 2

    def test_failing_check_gives_exit_one(self, capsys, monkeypatch):
        import kernelbasis.cli as cli_mod
        from kernelbasis.report import VerificationReport

        reports = [VerificationReport("demo/off", 1.0, 1.5, 1e-8)]
        monkeypatch.setattr(cli_mod, "run_suite", lambda *args, **kwargs: reports)
        code, out, err = run_cli(capsys, "verify", "oracle")
        assert code == 1
        assert "failed: demo/off" in err
        assert "FAIL demo/off" in out

    @pytest.mark.parametrize("argv", [["gaussian", "--tol", "1e-3"],
                                      ["all", "--quad-nodes", "96"]], ids=["tol", "quad-nodes"])
    def test_harness_knobs_are_usage_errors(self, argv):
        # the harness runs one configuration, so no flag can loosen or resize it
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2


class TestDemoKRR:
    def test_default_run_close_to_full_kernel(self, capsys):
        code, out, _ = run_cli(capsys, "demo-krr")
        assert code == 0
        metrics = dict(line.split(",") for line in out.strip().split("\n")[1:])
        assert float(metrics["test_rmse"]) < 1.1 * float(metrics["full_test_rmse"])
        assert float(metrics["max_abs_pred_diff"]) < 1e-6

    def test_deterministic_given_seed(self, capsys):
        _, out1, _ = run_cli(capsys, "demo-krr", "--seed", "42", "--family", "matern",
                             "--nu", "1", "--n", "32")
        _, out2, _ = run_cli(capsys, "demo-krr", "--seed", "42", "--family", "matern",
                             "--nu", "1", "--n", "32")
        assert out1 == out2

    def test_ridge_zero_duplicates_exit_one(self, capsys, monkeypatch):
        # duplicated abscissae make the interpolation Gram exactly singular
        import kernelbasis.cli as cli_mod

        real_uniform = np.random.default_rng(0).uniform

        class Dup:
            def __init__(self, seed):
                pass

            def uniform(self, lo, hi, size):
                pts = np.linspace(lo, hi, size)
                pts[1] = pts[0]
                return pts

            def standard_normal(self, size):
                return np.zeros(size)

        monkeypatch.setattr(cli_mod.np.random, "default_rng", lambda seed: Dup(seed))
        code, _, err = run_cli(capsys, "demo-krr", "--ridge", "0")
        assert code == 1
        assert "condition" in err
