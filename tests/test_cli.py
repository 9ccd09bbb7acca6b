"""CLI integration: exit-code contract and deterministic output."""

import hashlib
import json
import os
import re
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
            "error: A_3 denominator vanishes for "
            "BIParams(rho1=-3/1, rho2=0/1, r1=1/2, r2=1/2)\n"
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

    def test_zero_denominator_exit_2(self, capsys):
        code, out, err = run(
            capsys, "poly", "--rho1", "1/0", "--rho2", "1", "--r1", "0", "--r2", "0",
        )
        assert (code, out, err) == (EXIT_INVALID, "", "error: zero denominator in 1/0\n")

    def test_word_is_not_a_decimal_exit_2(self, capsys):
        code, out, err = run(
            capsys, "poly", "--rho1", "seven", "--rho2", "1", "--r1", "0", "--r2", "0",
        )
        assert (code, out, err) == (
            EXIT_INVALID, "", "error: cannot parse rational from 'seven'\n")


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
            "ladder suite (1 tuples, n <= 10)",
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

    def test_one_continuant(self, capsys, monkeypatch):
        # The spectrum check and the overlaps read one cached run.
        calls = count_calls(monkeypatch, "bi_lab.racah", "_continuant")
        for _ in range(2):
            calls[0] = 0
            code, out, _ = run(
                capsys, "racah", "--mu", "1/4,1/3,1/2", "--N", "24",
                "--format", "json",
            )
            assert code == EXIT_OK and json.loads(out)["spectra_check"] is True
            assert calls[0] == 1

    def test_one_identification_and_step_list(self, capsys, monkeypatch):
        # The spectrum check reads the steps cmd_racah made; the weights
        # guard reads the coefficients and makes none.
        from bi_lab.racah import RacahParams

        steps = count_calls(monkeypatch, "bi_lab.bi_poly", "recurrence_steps")
        ident = [0]
        def counted(RP, _orig=RacahParams.identifications):
            ident[0] += 1
            return _orig(RP)
        monkeypatch.setattr(RacahParams, "identifications", counted)
        code, out, _ = run(capsys, "racah", "--mu", "3/2,6/5,1", "--N", "24",
                           "--format", "json")
        assert code == EXIT_OK and json.loads(out)["spectra_check"] is True
        assert (steps[0], ident[0]) == (1, 1)

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

    def test_mu_at_lower_bound_exit_2(self, capsys):
        code, out, err = run(capsys, "dirac", "--mu=-1/2,1/3,1/2", "--maxdeg", "1")
        assert (code, out, err) == (EXIT_INVALID, "", "error: each mu_i must exceed -1/2\n")


@pytest.mark.parametrize("argv", ["verify --scope sl1", "dirac --mu 1/4,1/3,1/2"])
def test_report_csv_format_exit_2(capsys, argv):
    # A report has no csv form: argparse refuses the value.
    with pytest.raises(SystemExit) as exc:
        main([*argv.split(), "--format", "csv"])
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (EXIT_INVALID, "")
    assert "invalid choice: 'csv'" in out.err


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
    ("dirac --mu -1/3,2/5,-3/7 --maxdeg 4 --format json", "ccc4238316d345b5"),
    ("dirac --mu 1/5,2/7,5/9 --maxdeg 6 --format json", "3f2c193c331e8cec"),
    ("verify --scope dirac --tuples 2 --maxdeg 4 --format json", "279a7415e4fa1769"),
    ("verify --scope dirac --format json", "fa4362039daa6c92"),
    ("verify --scope sl1 --format json", "ac5cd757a59ed631"),
    ("verify --scope bi --tuples 2 --maxdeg 4 --format json", "91079666a61431db"),
    ("poly --rho1 1 --rho2 2 --r1 1/2 --r2 1/4 --nmax 40 --format json", "56031bd448a3a34a"),
    ("poly --rho1=-7/3 --rho2 5/8 --r1 3/4 --r2=-1/6 --nmax 24 --format csv",
     "86bba0c57659de73"),
    ("verify --scope bi --tuples 5 --format json", "39f59b76a7991325"),
    ("verify --scope all --format json", "c19dbdd7622d531e"),
    ("racah --mu 1/4,1/3,1/2 --N 24 --format json", "45c1e362b64a4be0"),
    ("racah --mu 3/2,5/6,7/3 --N 11 --format json", "022402a8c20d4bdb"),
    ("weights --mu 1/4,1/3,1/2 --N 24 --format json", "810f1dbc50190ca6"),
    ("racah --mu 3/2,6/5,1 --N 24 --format json", "e2e2f2d4ba183951"),
    ("weights --mu 3/2,6/5,1 --N 24 --format json", "d8d4d47af5acf33a"),
    ("racah --mu 1/4,1/3,1/2 --N 0 --format json", "677b601d91a8fb60"),
    ("racah --mu 1/4,1/3,1/2 --N 1 --format json", "adffec4afc86cf7e"),
    ("verify --scope racah --format json", "a0670f202d50c46a"),
    ("verify --scope racah --tuples 100 --seed 7 --format json", "7e7fda88b1f41d1a"),
    ("racah --mu 3/2,6/5,1 --N 24 --format csv", "b2090d2c8b2586ad"),
    ("racah --mu 1/4,1/3,1/2 --N 2", "65d41f7dd6971dff"),
])
def test_golden_output(capsys, argv, digest):
    # Fixed flags give byte-identical JSON; these digests pin it.
    code, out, _ = run(capsys, *argv.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("spaced", [
    "poly --rho1 -1/2 --rho2 5/8 --r1 3/4 --r2 -1/6 --nmax 13 --format json",
    "poly --rho1 -1/2 --rho2 5/8 --r1 3/4 --r2 -1/6 --nmax 13 --format csv",
    "racah --mu -1/4,1/3,1/2 --N 5 --format json",
    "racah --mu -1/4,1/3,1/2 --N 5",
    "weights --mu -1/4,1/3,1/2 --N 5 --format csv",
])
def test_negative_value_after_space_or_equals(capsys, spaced):
    # "--flag -p/q" and "--flag=-p/q" are the same input.
    joined = re.sub(r" (-\d)", r"=\1", spaced)
    assert "=-" in joined and " -1" not in joined
    spaced_out, joined_out = run(capsys, *spaced.split()), run(capsys, *joined.split())
    assert spaced_out == joined_out
    assert spaced_out[0] == EXIT_OK and spaced_out[1] and not spaced_out[2]


def test_parser_built_once_handler_looked_up_per_call(capsys, monkeypatch):
    import bi_lab.cli as cli

    parser = cli.build_parser()
    # A cmd_* rebound after the parser was built is the one main calls.
    calls = count_calls(monkeypatch, "bi_lab.cli", "cmd_dirac")
    for _ in range(2):
        code, out, _ = run(capsys, "dirac", "--mu", "1/4,1/3,1/2", "--maxdeg", "0")
        assert code == EXIT_OK and out
    assert calls[0] == 2
    assert cli.build_parser() is parser


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
