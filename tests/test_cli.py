"""CLI integration: exit-code contract and deterministic output."""

import json

import pytest

from bi_lab.cli import EXIT_INVALID, EXIT_OK, EXIT_VERIFY_FAILED, main
from bi_lab.report import VerificationReport


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPoly:
    def test_example_eigenvalues(self, capsys):
        code, out, _ = run(
            capsys, "poly", "--rho1", "1", "--rho2", "2", "--r1", "1/2",
            "--r2", "1/4", "--nmax", "2", "--format", "json",
        )
        assert code == EXIT_OK
        rows = json.loads(out)
        assert [r["lambda"] for r in rows] == ["11/4", "-15/4", "19/4"]
        assert rows[1]["coeffs"] == "-8/13 1/1"
        assert rows[0]["A"] == "5/13"

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "poly", "--rho1", "1", "--rho2", "2", "--r1", "1/2",
            "--r2", "1/4", "--nmax", "1", "--format", "csv",
        )
        assert code == EXIT_OK
        lines = out.split("\r\n")
        assert lines[0] == "n,lambda,A,C,coeffs"
        assert lines[1].startswith("0,11/4,")

    def test_degenerate_params_exit_2(self, capsys):
        code, _, err = run(
            capsys, "poly", "--rho1", "0", "--rho2", "0", "--r1", "1/2",
            "--r2", "1/2", "--nmax", "5",
        )
        assert code == EXIT_INVALID
        assert "denominator" in err

    def test_decimal_rejected(self, capsys):
        code, _, err = run(
            capsys, "poly", "--rho1", "0.5", "--rho2", "0", "--r1", "0",
            "--r2", "0",
        )
        assert code == EXIT_INVALID

    def test_negative_nmax_exit_2(self, capsys):
        code, out, err = run(
            capsys, "poly", "--rho1", "1", "--rho2", "2", "--r1", "1/2",
            "--r2", "1/4", "--nmax", "-3",
        )
        assert (code, out) == (EXIT_INVALID, "")
        assert "--nmax" in err


class TestVerify:
    def test_small_scope_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--scope", "sl1", "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["pass"] is True

    def test_deterministic_json(self, capsys):
        args = ("verify", "--scope", "sl1", "--seed", "7", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_zero_tuples_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "--scope", "sl1", "--tuples", "0")
        assert (code, out) == (EXIT_INVALID, "")
        assert "--tuples" in err

    def test_negative_maxdeg_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "--scope", "bi", "--maxdeg", "-1")
        assert (code, out) == (EXIT_INVALID, "")
        assert "--maxdeg" in err

    @pytest.mark.parametrize("scope", ["racah", "sl1"])
    def test_maxdeg_refused_for_scope_without_degrees(self, capsys, scope):
        code, out, err = run(capsys, "verify", "--scope", scope, "--maxdeg", "3")
        assert (code, out) == (EXIT_INVALID, "")
        assert scope in err and "--maxdeg" in err

    def test_all_passes_maxdeg_to_degree_suites_only(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--scope", "all", "--tuples", "1", "--maxdeg", "1",
            "--format", "json",
        )
        assert code == EXIT_OK
        assert [e["check"] for e in json.loads(out)["entries"]] == [
            "bi suite (1 tuples, maxdeg 1)",
            "polynomial triple-oracle suite (1 tuples, n <= 10)",
            "sl_(-1)(2) suite (1 tuples)",
            "racah suite (1 tuples, N <= 8)",
            "dunkl-dirac suite (1 tuples, slices <= 1)",
        ]

    def test_failure_exit_1(self, capsys, monkeypatch):
        failing = VerificationReport("stub")
        failing.record("stub check", 0, False, "forced failure")
        monkeypatch.setattr(
            "bi_lab.cli.run_scope", lambda *a, **k: failing
        )
        code, out, _ = run(capsys, "verify", "--scope", "bi")
        assert code == EXIT_VERIFY_FAILED
        assert "FAIL" in out


class TestRacah:
    def test_example_n2(self, capsys):
        code, out, _ = run(
            capsys, "racah", "--mu", "1/4,1/3,1/2", "--N", "2",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        ident = payload["identifications"]
        assert (ident["rho1"], ident["rho2"], ident["r1"], ident["r2"]) == (
            "5/12", "13/6", "1/12", "23/12"
        )
        assert payload["k3_diagonal"] == ["13/12", "-25/12", "37/12"]
        assert payload["spectra_check"] is True

    def test_example_n0(self, capsys):
        code, out, _ = run(
            capsys, "racah", "--mu", "1/4,1/3,1/2", "--N", "0",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["grid"] == ["5/12"]
        assert len(payload["representation"]["K1"]) == 1

    def test_bad_mu_exit_2(self, capsys):
        code, _, err = run(capsys, "racah", "--mu", "1/4,1/3", "--N", "2")
        assert code == EXIT_INVALID

    def test_inadmissible_mu_exit_2(self, capsys):
        code, _, _ = run(capsys, "racah", "--mu=-1/2,1/3,1/2", "--N", "2")
        assert code == EXIT_INVALID


class TestDirac:
    def test_report_passes(self, capsys):
        code, out, _ = run(
            capsys, "dirac", "--mu", "1/4,1/3,1/2", "--maxdeg", "2",
            "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["pass"] is True

    def test_negative_maxdeg_exit_2(self, capsys):
        code, out, err = run(
            capsys, "dirac", "--mu", "1/4,1/3,1/2", "--maxdeg", "-2",
        )
        assert (code, out) == (EXIT_INVALID, "")
        assert "--maxdeg" in err


class TestWeights:
    def test_nodes_match_grid(self, capsys):
        code, out, _ = run(
            capsys, "weights", "--mu", "1/4,1/3,1/2", "--N", "2",
            "--format", "json",
        )
        assert code == EXIT_OK
        rows = json.loads(out)
        assert len(rows) == 3
        assert all(r["weight"] > 0 for r in rows)
        assert abs(sum(r["weight"] for r in rows) - 1.0) < 1e-12
