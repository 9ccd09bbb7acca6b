"""CLI integration: exit-code contract and deterministic output."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bi_lab.cli import EXIT_INVALID, EXIT_OK, EXIT_VERIFY_FAILED, main
from bi_lab.exact import rat_parse
from bi_lab.report import VerificationReport


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def count_calls(monkeypatch, module: str, name: str) -> list[int]:
    """Count calls of ``module.name`` through every bi_lab binding of it."""
    orig = getattr(sys.modules[module], name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("bi_lab") and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


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

    def test_degenerate_below_nmax_exit_2(self, capsys):
        # A_n's denominator 4(n + rho1 + rho2 - r1 - r2 + 1) vanishes at n = 3.
        code, out, err = run(
            capsys, "poly", "--rho1", "-3", "--rho2", "0", "--r1", "1/2",
            "--r2", "1/2", "--nmax", "8", "--format", "json",
        )
        assert (code, out) == (EXIT_INVALID, "")
        assert err == (
            "error: A_3 denominator vanishes for BIParams(rho1=Fraction(-3, 1), "
            "rho2=Fraction(0, 1), r1=Fraction(1, 2), r2=Fraction(1, 2))\n"
        )

    def test_one_recurrence_per_table(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "bi_lab.bi_poly", "recurrence_coeffs")
        code, out, _ = run(
            capsys, "poly", "--rho1", "1", "--rho2", "2", "--r1", "1/2",
            "--r2", "1/4", "--nmax", "40", "--format", "json",
        )
        assert code == EXIT_OK and len(json.loads(out)) == 41
        # One (A_n, C_n) per row: the rows and B_0..B_40 share them.
        assert calls[0] == 41

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

    def test_empty_report_exit_1(self, capsys, monkeypatch):
        # A report in which no check ran does not pass.
        empty = VerificationReport("stub")
        assert not empty.passed and empty.to_json()["pass"] is False
        monkeypatch.setattr("bi_lab.cli.run_scope", lambda *a, **k: empty)
        code, out, _ = run(capsys, "verify", "--scope", "bi")
        assert code == EXIT_VERIFY_FAILED
        assert "FAIL" in out

    def test_failure_exit_1(self, capsys, monkeypatch):
        failing = VerificationReport("stub")
        failing.record("stub check", 0, False, "forced failure")
        monkeypatch.setattr(
            "bi_lab.cli.run_scope", lambda *a, **k: failing
        )
        code, out, _ = run(capsys, "verify", "--scope", "bi")
        assert code == EXIT_VERIFY_FAILED
        assert "FAIL" in out

    def test_failure_detail_printed_once(self, capsys, monkeypatch):
        # A failed sub-report's chain appears on its entry line only; the
        # last line gives the verdict and counts.
        sub = VerificationReport("sub")
        sub.record("inner check", 3, False, "forced failure")
        failing = VerificationReport("stub")
        failing.record("passing check", 0, True)
        failing.record_report("sub entry", 1, sub)
        monkeypatch.setattr("bi_lab.cli.run_scope", lambda *a, **k: failing)
        code, out, _ = run(capsys, "verify", "--scope", "bi")
        assert code == EXIT_VERIFY_FAILED
        assert out.count("forced failure") == 1
        assert out.splitlines() == [
            "[pass] passing check",
            "[FAIL] sub entry -- " + sub.summary(),
            "stub: FAIL (2 checks, 1 failed)",
        ]


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

    def test_overlaps_evaluate_no_polynomial(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "bi_lab.poly", "poly_eval")
        code, out, _ = run(
            capsys, "racah", "--mu", "1/4,1/3,1/2", "--N", "24", "--format", "json",
        )
        assert code == EXIT_OK and len(json.loads(out)["overlaps"]) == 25
        assert calls[0] == 0

    def test_one_rep_build(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "bi_lab.racah", "build_tridiag_rep")
        for _ in range(2):  # a second identical call does the same work again
            calls[0] = 0
            code, out, _ = run(
                capsys, "racah", "--mu", "1/4,1/3,1/2", "--N", "24",
                "--format", "json",
            )
            assert code == EXIT_OK and len(json.loads(out)["overlaps"]) == 25
            assert calls[0] == 1

    def test_one_recurrence_per_degree(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "bi_lab.bi_poly", "recurrence_coeffs")
        code, out, _ = run(
            capsys, "racah", "--mu", "1/4,1/3,1/2", "--N", "24", "--format", "json",
        )
        assert code == EXIT_OK and len(json.loads(out)["weights"]) == 25
        # The spectrum check and the weights share (A_k, C_k), k <= 24.
        assert calls[0] == 25

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
    def test_exact_weights_match_racah_grid(self, capsys):
        argv = ["--mu", "1/4,1/3,1/2", "--N", "4", "--format", "json"]
        code, out, _ = run(capsys, "weights", *argv)
        assert code == EXIT_OK
        rows = json.loads(out)
        assert [list(r) for r in rows] == [["s", "weight", "x_s"]] * 5
        weights = [rat_parse(r["weight"]) for r in rows]
        assert all(w > 0 for w in weights) and sum(weights) == 1
        code, out, _ = run(capsys, "racah", *argv)
        assert code == EXIT_OK
        racah = json.loads(out)
        assert [r["x_s"] for r in rows] == racah["grid"]
        assert [r["weight"] for r in rows] == [w["w"] for w in racah["weights"]]

    def test_pinned_weights(self, capsys):
        code, out, _ = run(
            capsys, "weights", "--mu", "0,0,0", "--N", "3", "--format", "json",
        )
        assert code == EXIT_OK
        assert [r["weight"] for r in json.loads(out)] == \
            ["9/64", "15/64", "5/64", "35/64"]

    @pytest.mark.parametrize("command", ["racah", "weights"])
    @pytest.mark.parametrize("argv, message", [
        ("--mu 1/4,1/3,1/2 --N -1", "N must be non-negative"),
        ("--mu 1/4,1/3 --N 2", "--mu expects three comma-separated rationals"),
        ("--mu=-1/2,1/3,1/2 --N 2", "each mu_i must exceed -1/2"),
    ])
    def test_invalid_input_exit_2(self, capsys, command, argv, message):
        code, out, err = run(capsys, command, *argv.split())
        assert (code, out) == (EXIT_INVALID, "")
        assert message in err


@pytest.mark.parametrize("argv, digest", [
    ("dirac --mu 1/4,1/3,1/2 --maxdeg 5 --format json", "de74e789b369a86f"),
    ("dirac --mu 0,0,0 --maxdeg 5 --format json", "624d78af23b4efb3"),
    ("dirac --mu 3/2,5/6,7/3 --maxdeg 5 --format json", "3b58073617d82cac"),
    ("verify --scope dirac --tuples 2 --maxdeg 4 --format json", "279a7415e4fa1769"),
    ("verify --scope dirac --format json", "fa4362039daa6c92"),
    ("verify --scope sl1 --format json", "ac5cd757a59ed631"),
    ("verify --scope bi --tuples 2 --maxdeg 4 --format json", "dfffb980624578b1"),
    ("poly --rho1 1 --rho2 2 --r1 1/2 --r2 1/4 --nmax 40 --format json", "56031bd448a3a34a"),
    ("poly --rho1=-7/3 --rho2 5/8 --r1 3/4 --r2=-1/6 --nmax 24 --format csv",
     "86bba0c57659de73"),
    ("verify --scope bi --tuples 5 --format json", "9fa8a00102e0feb3"),
    ("verify --scope all --format json", "be6342fa53cfec95"),
])
def test_golden_output(capsys, argv, digest):
    # Fixed flags give byte-identical JSON; these digests pin it.
    code, out, _ = run(capsys, *argv.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_exact_routes_do_not_import_numpy():
    # numpy is imported only inside the float oracle `discrete_weights`;
    # every subcommand, in every format, must run without it.
    argvs = [
        "verify --scope bi --tuples 1", "verify --scope dirac --tuples 1",
        "verify --scope racah --tuples 1", "verify --scope sl1 --tuples 1",
        "poly --rho1 1 --rho2 2 --r1 1/2 --r2 1/4",
        "dirac --mu 1/4,1/3,1/2 --maxdeg 2",
    ] + [f"{cmd} --mu 1/4,1/3,1/2 --N 2 --format {fmt}"
         for cmd in ("racah", "weights") for fmt in ("json", "csv", "pretty")]
    code = (
        "import contextlib, io, sys\n"
        "import bi_lab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [bi_lab.cli.main(a.split()) for a in {argvs!r}]\n"
        f"assert codes == {[0] * len(argvs)!r}, codes\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
