"""Acceptance gate: the nine primary criteria, one pass/fail line each.

Each test prints a single `[PASS]`/`[FAIL]` line for its criterion (visible
with ``pytest -s`` or on failure) and asserts it.  Tolerances and sizes are
the stated ones; runtime targets are asserted where specified.
"""

import json
import random
import time
from fractions import Fraction

from bi_lab.bi_operator import k1_apply
from bi_lab.bi_poly import (
    bi_recurrence,
    discrete_weights,
    discrete_weights_exact,
    eigenvalue,
    grid_point,
    ladder_apply,
    ladder_coeffs,
    recurrence_coeffs,
    recurrence_steps,
    v_apply,
)
from bi_lab.cli import main as cli_main
from bi_lab.errors import BILabError
from bi_lab.poly import P_ZERO, Poly, poly_eval
from bi_lab.racah import (
    RacahParams,
    central_extension_check,
    k1_spectrum_check,
    build_tridiag_rep,
    racah_overlaps,
    tensor_oracle,
)
from bi_lab.suites import (
    DEFAULT_SEED,
    random_bi_params_regular,
    random_racah_params,
    suite_bi,
    suite_dirac,
    suite_polynomials,
    suite_racah,
)


def _report(num: int, desc: str, ok: bool) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    print(line)
    assert ok, line


def test_criterion_1_exact_bi_relations():
    t0 = time.perf_counter()
    report = suite_bi(seed=DEFAULT_SEED, tuples=50, maxdeg=12)
    elapsed = time.perf_counter() - t0
    _report(
        1,
        f"BI relations + Casimir, 50 tuples, deg <= 12, exact "
        f"({elapsed:.1f}s < 30s)",
        report.passed and elapsed < 30,
    )


def test_criterion_2_triple_oracle():
    t0 = time.perf_counter()
    report = suite_polynomials(seed=DEFAULT_SEED, tuples=20, nmax=10)
    # Eigen-equation up to n = 12 on a fixed regular tuple.
    rng = random.Random(DEFAULT_SEED)
    P, coeffs, _ = random_bi_params_regular(rng, 12)
    eigen_ok = all(
        k1_apply(P, bn) == bn.scale(eigenvalue(P, n))
        for n, bn in enumerate(bi_recurrence(recurrence_steps(P, coeffs[:12])))
    )
    elapsed = time.perf_counter() - t0
    _report(
        2,
        f"triple-oracle equality (20 tuples, n <= 10) + eigen-equation "
        f"n <= 12 ({elapsed:.1f}s < 30s)",
        report.passed and eigen_ok and elapsed < 30,
    )


def test_criterion_3_ladders_and_v_operator():
    rng = random.Random(DEFAULT_SEED)
    ok = True
    half = Fraction(1, 2)
    for _ in range(5):
        P, coeffs, _ = random_bi_params_regular(rng, 11)
        polys = bi_recurrence(recurrence_steps(P, coeffs[:11]))
        for n in range(11):
            try:
                lc = ladder_coeffs(P, n)
            except BILabError:
                ok = False
                continue
            lam = eigenvalue(P, n)
            if n % 2 == 0:
                up = P_ZERO if n == 0 else polys[n - 1].scale(lc.alpha0)
                ok &= ladder_apply(P, "+", polys[n]) == up
                ok &= ladder_apply(P, "-", polys[n]) == polys[n + 1].scale(lc.beta0)
                lower = P_ZERO if n == 0 else \
                    polys[n - 1].scale((lam + half) * lc.alpha0)
                upper = polys[n + 1].scale((lam - half) * lc.beta0)
            else:
                ok &= ladder_apply(P, "+", polys[n]) == polys[n + 1].scale(lc.alpha1)
                ok &= ladder_apply(P, "-", polys[n]) == polys[n - 1].scale(lc.beta1)
                lower = polys[n - 1].scale((lam - half) * lc.beta1)
                upper = polys[n + 1].scale((lam + half) * lc.alpha1)
            ok &= v_apply(P, polys[n], "first") == lower + upper
        for d in range(11):
            mono = Poly.monomial(d)
            ok &= v_apply(P, mono, "first") == v_apply(P, mono, "second")
    _report(3, "ladder closed forms + V-operator identity, n <= 10, exact", ok)


def test_criterion_4_racah_exact_representation():
    report = suite_racah(seed=DEFAULT_SEED, tuples=20, max_n=8)
    # The suite checks the relations and the Casimir of each built
    # representation, its K1 spectrum and the B=2A, D=2C identifications
    # for every tuple.
    _report(
        4, "exact tridiagonal representation + identifications, 20 tuples, "
        "N <= 8", report.passed,
    )


def test_criterion_5_spectra_and_overlaps():
    rng = random.Random(DEFAULT_SEED + 5)
    ok = True
    for _ in range(20):
        RP = random_racah_params(rng, 8)
        rep = build_tridiag_rep(RP)
        P = RP.identifications()
        coeffs = [recurrence_coeffs(P, k) for k in range(RP.N + 1)]
        ok &= k1_spectrum_check(rep, coeffs).passed
        grid = [grid_point(P, s) for s in range(RP.N + 1)]
        d_prod = [Fraction(1)]
        for d in rep.D[1:]:
            d_prod.append(d_prod[-1] * d)
        polys = bi_recurrence(recurrence_steps(P, coeffs[:RP.N]))
        want = [[2**k * poly_eval(b, x) / d_prod[k] for k, b in enumerate(polys)]
                for x in grid]
        ok &= racah_overlaps(rep) == want
    _report(5, "K1 spectra and overlap rows = 2^k B_k(x_s) / prod D_j, exact, "
            "N <= 8", ok)


def test_criterion_6_tensor_oracle():
    ok = True
    rng = random.Random(DEFAULT_SEED + 6)
    cases = [RacahParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), 2)]
    cases += [random_racah_params(rng, 4) for _ in range(3)]
    for RP in cases:
        ok &= tensor_oracle(RP, RP.N).passed
        ok &= central_extension_check(RP, RP.N).passed
    _report(6, "tensor-product slice: Q12/Q23/Q4 spectra, BI relations on "
            "every Q4 eigenspace, central extension, exact", ok)


def test_criterion_7_dunkl_dirac_suite():
    t0 = time.perf_counter()
    report = suite_dirac(seed=DEFAULT_SEED, tuples=10, maxdeg=6)
    elapsed = time.perf_counter() - t0
    _report(
        7,
        f"Dunkl-Dirac exact suite, 10 tuples, slices <= 6 "
        f"({elapsed:.1f}s < 120s)",
        report.passed and elapsed < 120,
    )


def test_criterion_8_finite_orthogonality():
    rng = random.Random(DEFAULT_SEED + 8)
    ok = True
    for _ in range(10):
        RP = random_racah_params(rng, 10)
        P = RP.identifications()
        # Float route: eigensolve nodes must match the grid at 1e-10.
        coeffs = [recurrence_coeffs(P, k) for k in range(RP.N + 1)]
        float_out = discrete_weights(P, coeffs)
        ok &= all(w > 0 for _, w in float_out)
        # Exact route: rational weights make the quadrature sums exactly 0.
        exact_out = discrete_weights_exact(P, coeffs)
        ok &= all(w > 0 for _, w in exact_out)
        ok &= sum(w for _, w in exact_out) == 1
        polys = bi_recurrence(recurrence_steps(P, coeffs[:RP.N]))
        for m in range(RP.N + 1):
            for n in range(m + 1, RP.N + 1):
                total = sum(
                    w * poly_eval(polys[m], x) * poly_eval(polys[n], x)
                    for x, w in exact_out
                )
                ok &= total == 0
    _report(8, "finite orthogonality: nodes = grid (1e-10), positive "
            "weights, exact orthogonality, N <= 10", ok)


def test_criterion_9_cli_contract(capsys):
    ok = True
    # Example 1: eigenvalue table.
    code = cli_main(["poly", "--rho1", "1", "--rho2", "2", "--r1", "1/2",
                     "--r2", "1/4", "--nmax", "2", "--format", "json"])
    rows = json.loads(capsys.readouterr().out)
    ok &= code == 0 and [r["lambda"] for r in rows] == ["11/4", "-15/4", "19/4"]
    # Example 2: degenerate parameters exit 2.
    code = cli_main(["poly", "--rho1", "0", "--rho2", "0", "--r1", "1/2",
                     "--r2", "1/2", "--nmax", "5"])
    capsys.readouterr()
    ok &= code == 2
    # Example 3: Racah identifications.
    code = cli_main(["racah", "--mu", "1/4,1/3,1/2", "--N", "2",
                     "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    ident = payload["identifications"]
    ok &= code == 0 and (
        ident["rho1"], ident["rho2"], ident["r1"], ident["r2"]
    ) == ("5/12", "13/6", "1/12", "23/12")
    # Determinism: byte-identical JSON for fixed flags and seed.
    args = ["verify", "--scope", "sl1", "--seed", "11", "--format", "json"]
    cli_main(args)
    first = capsys.readouterr().out
    cli_main(args)
    ok &= capsys.readouterr().out == first
    _report(9, "CLI exit codes, example invocations, deterministic JSON", ok)
