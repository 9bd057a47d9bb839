import csv
import io
import json
import math
import pathlib
import re

import pytest

from tailrisk import cli, mc_oracle
from tailrisk.special import NumericsError

HERE = pathlib.Path(__file__).parent
GOLDEN = HERE / "golden"
DATA = HERE / "data"
T3_FILE = str(DATA / "three_asset_t3.txt")
GAUSS_FILE = str(DATA / "two_asset_gauss.txt")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPsiTable:
    def test_default_matches_golden(self, capsys):
        code, out, _ = run(capsys, "psi-table")
        assert code == 0
        assert out == (GOLDEN / "psi_table_default.csv").read_text()

    def test_default_row_counts(self, capsys):
        _, out, _ = run(capsys, "psi-table")
        lines = out.strip().splitlines()
        assert lines[0] == "distribution,nu,measure,u,psi"
        body = lines[1:]
        assert len(body) == 58
        assert sum(1 for ln in body if ln.startswith("gaussian")) == 10
        assert sum(1 for ln in body if ln.startswith("student-t")) == 48

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "psi-table")
        _, second, _ = run(capsys, "psi-table")
        assert first == second

    def test_fractional_nu_not_truncated(self, capsys):
        _, out, _ = run(capsys, "psi-table", "--nu", "3.9",
                        "--measure", "var", "--u", "0.025")
        _, out3, _ = run(capsys, "psi-table", "--nu", "3",
                         "--measure", "var", "--u", "0.025")
        row = out.strip().splitlines()[1].split(",")
        assert row[1] == "3.8999999999999999"
        assert row[4] != out3.strip().splitlines()[1].split(",")[4]

    def test_json_format(self, capsys):
        _, out, _ = run(capsys, "psi-table", "--nu", "gaussian,4",
                        "--measure", "cvar", "--u", "0.01,0.001",
                        "--format", "json")
        rows = json.loads(out)
        assert len(rows) == 4
        assert {r["distribution"] for r in rows} == {"gaussian", "student-t"}
        assert all(r["measure"] == "cvar" for r in rows)

    def test_bad_u_is_validation_error(self, capsys):
        code, _, err = run(capsys, "psi-table", "--u", "0.6")
        assert code == 2
        assert "error:" in err


class TestLossCurves:
    def test_default_matches_golden(self, capsys):
        code, out, _ = run(capsys, "loss-curves")
        assert code == 0
        assert out == (GOLDEN / "loss_curves_default.csv").read_text()

    def test_default_grid_size(self, capsys):
        _, out, _ = run(capsys, "loss-curves")
        # 56 x values (0.5 to 6.0 step 0.1) times three curves
        assert len(out.strip().splitlines()) == 1 + 56 * 3

    def test_heavy_tail_crosses_30_sigma(self, capsys):
        # for nu=2.25 the CVaR multiplier passes 30 between u=1e-4 and 1e-5
        _, out, _ = run(capsys, "loss-curves", "--nu", "2.25",
                        "--x-from", "4.0", "--x-to", "5.0", "--x-step", "1.0")
        rows = out.strip().splitlines()[1:]
        cvar = {float(r.split(",")[0]): float(r.split(",")[4]) for r in rows}
        assert cvar[4.0] < 30.0 < cvar[5.0]

    def test_invalid_range_rejected(self, capsys):
        code, _, err = run(capsys, "loss-curves", "--x-from", "2.0",
                           "--x-to", "1.0")
        assert code == 2
        assert "error:" in err

    def test_u_above_half_rejected(self, capsys):
        code, _, _ = run(capsys, "loss-curves", "--x-from", "0.1",
                         "--x-to", "0.2", "--x-step", "0.1")
        assert code == 2


class TestProblemFileParsing:
    def test_valid_file(self):
        pf = cli.parse_problem_file(T3_FILE)
        assert pf.spec.distribution == "student-t"
        assert pf.spec.nu == 3.0
        assert pf.spec.measure == "cvar"
        assert pf.u == 0.025
        assert pf.cov.shape == (3, 3)

    def write(self, tmp_path, text):
        path = tmp_path / "problem.txt"
        path.write_text(text)
        return str(path)

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "optimize", "/nonexistent/problem.txt")
        assert code == 2
        assert "error:" in err

    def test_missing_section(self, tmp_path):
        path = self.write(tmp_path, "[returns]\n0.1 0.2\n")
        with pytest.raises(ValueError, match="missing required section"):
            cli.parse_problem_file(path)

    def test_ragged_covariance(self, tmp_path):
        path = self.write(tmp_path, "[returns]\n0.1 0.2\n[covariance]\n"
                                    "1 0\n0\n[spec]\ndistribution = gaussian\n"
                                    "measure = var\nu = 0.025\n")
        with pytest.raises(ValueError, match="ragged"):
            cli.parse_problem_file(path)

    def test_malformed_number_has_line_number(self, tmp_path):
        path = self.write(tmp_path, "[returns]\n0.1 oops\n[covariance]\n1\n"
                                    "[spec]\ndistribution = gaussian\n"
                                    "measure = var\nu = 0.025\n")
        with pytest.raises(ValueError, match=r":2:"):
            cli.parse_problem_file(path)

    def test_unknown_spec_key(self, tmp_path):
        path = self.write(tmp_path, "[returns]\n0.1\n[covariance]\n1\n"
                                    "[spec]\ndistribution = gaussian\n"
                                    "measure = var\nu = 0.025\nfoo = 1\n")
        with pytest.raises(ValueError, match="unknown spec key"):
            cli.parse_problem_file(path)

    def test_gaussian_with_nu_rejected(self, tmp_path):
        path = self.write(tmp_path, "[returns]\n0.1\n[covariance]\n1\n"
                                    "[spec]\ndistribution = gaussian\nnu = 4\n"
                                    "measure = var\nu = 0.025\n")
        with pytest.raises(ValueError):
            cli.parse_problem_file(path)

    def test_u_outside_tail_rejected(self, tmp_path):
        path = self.write(tmp_path, "[returns]\n0.1\n[covariance]\n1\n"
                                    "[spec]\ndistribution = gaussian\n"
                                    "measure = var\nu = 0.6\n")
        with pytest.raises(ValueError):
            cli.parse_problem_file(path)

    @pytest.mark.parametrize("key, value, line", [("u", "0.01 0.6", 9),
                                                  ("u", "", 9),
                                                  ("nu", "3 4", 7)])
    def test_spec_key_takes_one_number(self, tmp_path, key, value, line):
        spec = {"distribution": "student-t", "nu": "3", "measure": "var", "u": "0.01"}
        spec[key] = value
        path = self.write(tmp_path, "[returns]\n0.1\n[covariance]\n1\n[spec]\n"
                          + "".join(f"{k} = {v}\n" for k, v in spec.items()))
        expected = re.escape(f"{path}:{line}: {key} takes exactly one number")
        with pytest.raises(ValueError, match=expected):
            cli.parse_problem_file(path)

    @pytest.mark.parametrize("returns, covariance, spec", [
        ("0.1 nan", "1 0\n0 1", "distribution = gaussian\nu = 0.01"),
        ("0.1 0.2", "1 nan\nnan 1", "distribution = gaussian\nu = 0.01"),
        ("0.1 0.2", "1 0\n0 inf", "distribution = gaussian\nu = 0.01"),
        ("0.1 0.2", "1 0\n0 1", "distribution = student-t\nnu = inf\nu = 0.01"),
        ("0.1 0.2", "1 0\n0 1", "distribution = gaussian\nu = 0.01 0.6"),
    ])
    def test_bad_values_exit_2(self, capsys, tmp_path, returns, covariance, spec):
        path = self.write(tmp_path, f"[returns]\n{returns}\n[covariance]\n{covariance}\n"
                                    f"[spec]\n{spec}\nmeasure = var\n")
        for command in ("optimize", "frontier", "verify"):
            code, out, err = run(capsys, command, path)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["loss-curves", "--x-to", "inf"], "--x-to"),
    (["loss-curves", "--x-from=-inf"], "--x-from"),
    (["loss-curves", "--x-step", "nan"], "--x-step"),
    (["frontier", GAUSS_FILE, "--x-to", "inf"], "--x-to"),
    (["frontier", GAUSS_FILE, "--x-step", "nan"], "--x-step"),
    (["psi-table", "--measure", ","], "--measure"),
    (["psi-table", "--nu", ","], "--nu"),
    (["psi-table", "--u", " , "], "--u"),
    (["loss-curves", "--nu", ","], "--nu"),
])
def test_bad_flags_exit_2(capsys, argv, flag):
    # non-finite grid bounds or step and empty lists name their flag
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} ") and "Traceback" not in err


class TestOptimize:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "optimize", T3_FILE)
        assert code == 0
        report = json.loads(out)
        assert report["converged"]
        assert report["measure"] == "cvar"
        assert sum(report["weights"]) == pytest.approx(1.0, abs=1e-10)
        assert min(report["weights"]) >= 0.0

    def test_u_override(self, capsys):
        _, base, _ = run(capsys, "optimize", T3_FILE)
        _, tail, _ = run(capsys, "optimize", T3_FILE, "--u", "1e-4")
        assert json.loads(tail)["u"] == 1e-4
        assert json.loads(tail)["psi"] > json.loads(base)["psi"]

    def test_gaussian_file(self, capsys):
        code, out, _ = run(capsys, "optimize", GAUSS_FILE)
        assert code == 0
        assert json.loads(out)["nu"] is None


class TestFrontier:
    def test_two_models_emitted(self, capsys):
        code, out, _ = run(capsys, "frontier", T3_FILE)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 2 * 9  # default grid x = 1.0 .. 5.0 step 0.5
        models = {ln.split(",")[0] for ln in lines[1:]}
        assert models == {"problem", "gaussian-var"}

    def test_variance_decreases_along_each_curve(self, capsys):
        _, out, _ = run(capsys, "frontier", T3_FILE)
        by_model = {}
        for ln in out.strip().splitlines()[1:]:
            parts = ln.split(",")
            by_model.setdefault(parts[0], []).append(float(parts[5]))
        for variances in by_model.values():
            for v1, v2 in zip(variances, variances[1:]):
                assert v2 <= v1 + 1e-10


class TestVerify:
    def test_passes_and_deterministic(self, capsys):
        code, first, _ = run(capsys, "verify", T3_FILE,
                             "--samples", "20000", "--seed", "1")
        assert code == 0
        report = json.loads(first)
        assert report["passed"]
        assert [c["name"] for c in report["checks"]] == \
            ["psi_var_bracket", "psi_cvar_bracket", "random_portfolio_agreement"]
        code2, second, _ = run(capsys, "verify", T3_FILE,
                               "--samples", "20000", "--seed", "1")
        assert code2 == 0
        assert second == first

    def test_bracket_tolerances(self, capsys):
        # VaR uses the standard error of its order statistic, CVaR the one
        # that also carries the variance of estimating VaR
        problem = cli.parse_problem_file(T3_FILE)
        nu = problem.spec.nu
        draws = mc_oracle.sample_t(nu, 20000, 1) * math.sqrt((nu - 2.0) / nu)
        est = mc_oracle.empirical_tail(draws, problem.u)
        _, out, _ = run(capsys, "verify", T3_FILE, "--samples", "20000", "--seed", "1")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["psi_var_bracket"]["observed"] == est.var_hat
        assert checks["psi_var_bracket"]["tolerance"] == 3.0 * est.var_standard_error
        assert checks["psi_cvar_bracket"]["tolerance"] == 3.0 * est.cvar_standard_error

    def test_gaussian_problem(self, capsys):
        code, out, _ = run(capsys, "verify", GAUSS_FILE,
                           "--samples", "20000", "--seed", "2")
        assert code == 0
        assert json.loads(out)["passed"]

    def test_too_few_samples_rejected(self, capsys):
        code, _, err = run(capsys, "verify", T3_FILE, "--samples", "100")
        assert code == 2
        assert "error:" in err

    def test_failure_exit_code(self, capsys, monkeypatch):
        # a broken analytic value must trip the bracket and exit 4
        real_psi = cli.psi
        monkeypatch.setattr(cli, "psi",
                            lambda spec, u: real_psi(spec, u) + 1.0)
        code, out, _ = run(capsys, "verify", T3_FILE,
                           "--samples", "20000", "--seed", "1")
        assert code == 4
        assert not json.loads(out)["passed"]


class TestExitCodes:
    def test_numerics_error_maps_to_3(self, capsys, monkeypatch):
        def boom(args):
            raise NumericsError("diverged")

        monkeypatch.setattr(cli, "cmd_psi_table", boom)
        code = cli.main(["psi-table"])
        captured = capsys.readouterr()
        assert code == 3
        assert "error: diverged" in captured.err

    def test_subnormal_tail_levels(self, capsys):
        # the Gaussian rows hold at u = 1e-320; the T quantile at nu just
        # above 2 would overflow there, which is a numerics failure
        code, out, _ = run(capsys, "psi-table", "--u", "1e-320")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["measure"] for r in rows] == ["var", "cvar"]
        assert 38.26 < float(rows[0]["psi"]) < float(rows[1]["psi"]) < 38.3
        for measure in ("var", "cvar"):
            code, out, err = run(capsys, "psi-table", "--nu", "2.0001",
                                 "--measure", measure, "--u", "1.6e-317")
            assert code == 3
            assert out == ""
            assert err.startswith("error:") and "Traceback" not in err

    def test_solver_nonconvergence_maps_to_3(self, capsys, monkeypatch):
        from tailrisk import portfolio

        monkeypatch.setattr(portfolio, "_MAX_ITER", 1)
        code, out, _ = run(capsys, "optimize", T3_FILE)
        assert code == 3
        assert not json.loads(out)["converged"]


def test_entry_point_help(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "psi-table" in capsys.readouterr().out
