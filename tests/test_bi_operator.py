"""Shift-reflection realization: frozen values and exact relations."""

import random
from fractions import Fraction

import pytest

from bi_lab.bi_operator import (
    BIParams,
    bi_matrices,
    casimir_scalar,
    check_bi_relations,
    k1_apply,
    k1_matrix,
    monomial_matrix,
)
from bi_lab.exact import HALF, rat_str
from bi_lab.linop import LinOp, lincomb
from bi_lab.poly import P_ONE, P_ZERO, Poly
from bi_lab.suites import suite_bi
from poly_oracle import k1_apply_composed, k2_apply, k3_apply
from test_bi_mutants import perturbed_k3


def bi_params(*values) -> BIParams:
    """BIParams of four values that ``Fraction`` takes."""
    return BIParams(*map(Fraction, values))


P1 = bi_params(1, 2, Fraction(1, 2), Fraction(1, 4))


class TestFrozenValuesP1:
    def test_h(self):
        assert P1.h == Fraction(11, 4)

    def test_k1_on_x(self):
        assert k1_apply(P1, Poly.monomial(1)) == Poly.make(
            [4, Fraction(-15, 4)]
        )

    def test_k1_on_const(self):
        assert k1_apply(P1, P_ONE) == P_ONE.scale(P1.h)

    def test_k2(self):
        assert k2_apply(P1, P_ONE) == Poly.make([Fraction(1, 2), 2])

    def test_casimir(self):
        report = casimir_scalar(P1, bi_matrices(P1, 8))
        assert report.passed
        assert [(e.check, e.index) for e in report.entries] == [
            ("K1^2 + K2^2 + K3^2 = 83/8", j) for j in range(9)
        ]

    def test_k1_matrix(self):
        K1, _, _ = bi_matrices(P1, 0)
        # 11/4 and (4, -15/4) over the common denominator 4.
        assert (K1.nums[:2], K1.den, K1.phase) == (({0: 11}, {0: 16, 1: -15}), 4, 0)


class TestStructure:
    def test_relations_hold(self):
        assert check_bi_relations(P1, bi_matrices(P1, 10)).passed

    @pytest.mark.parametrize(
        "params",
        [bi_params(0, 0, 0, 0),
         bi_params(Fraction(-1, 3), Fraction(2, 7), 5, Fraction(-3, 2))],
    )
    def test_relations_other_params(self, params):
        assert check_bi_relations(params, bi_matrices(params, 8)).passed

    def test_degree_preserved(self):
        for d in range(8):
            assert k1_apply(P1, Poly.monomial(d)).degree() == d
            assert k3_apply(P1, Poly.monomial(d)).degree() == d + 1

    def test_k1_matrix_upper_triangular(self):
        K1, _, _ = bi_matrices(P1, 6)
        assert all(i <= j for j, col in enumerate(K1.nums) for i in col)

    def test_k1_diagonal_is_spectrum(self):
        K1, _, _ = bi_matrices(P1, 6)
        for n in range(7):
            want = (n + P1.h) * (1 if n % 2 == 0 else -1)
            assert Fraction(K1.nums[n][n], K1.den) == want

    def test_matrices_match_operators(self):
        # Columns 0..maxdeg of K3 and of a product of generators are the
        # images of x^j, despite the truncated basis.
        def column(op: LinOp, j: int, p: Poly) -> bool:
            """Column j of the real matrix op holds p."""
            return op.phase == 0 and op.nums[j] == {
                i: c * op.den for i, c in enumerate(p.coeffs) if c}

        K1, K2, K3 = bi_matrices(P1, 5)
        K3K2, K1K3 = K3 @ K2, K1 @ K3
        for j in range(6):
            mono = Poly.monomial(j)
            assert column(K3, j, k3_apply(P1, mono))
            assert column(K3K2, j, k3_apply(P1, k2_apply(P1, mono)))
            assert column(K1K3, j, k1_apply(P1, k3_apply(P1, mono)))

    @pytest.mark.parametrize("P", [
        P1, bi_params(Fraction(-1, 3), Fraction(2, 7), 5, Fraction(-3, 2)),
        bi_params(Fraction(5, 6), Fraction(-7, 4), Fraction(3, 8), Fraction(1, 9)),
    ])
    @pytest.mark.parametrize("apply", [k1_apply, k2_apply, k3_apply])
    def test_monomial_matrix_equals_fraction_build(self, P, apply):
        # The integer build equals LinOp.make of the Fraction coefficients.
        for n in range(1, 16):
            assert monomial_matrix(P, apply, n) == LinOp.make(
                {i: c for i, c in enumerate(apply(P, Poly.monomial(j)).coeffs)
                 if i < n}
                for j in range(n)
            )

    def test_casimir_closed_form(self):
        report = casimir_scalar(P1, bi_matrices(P1, 6))
        value = 2 * (P1.rho1**2 + P1.rho2**2 + P1.r1**2 + P1.r2**2) - Fraction(1, 4)
        assert report.passed and report.checked == 7
        assert all(e.check == f"K1^2 + K2^2 + K3^2 = {rat_str(value)}"
                   for e in report.entries)


def seeded_k1_cases(count: int):
    """(P, p) pairs: degrees -1..16, the zero polynomial and constants
    included, with small rationals and numerators of about 10^30."""
    rng = random.Random(24)

    def rat(big: bool) -> Fraction:
        top = 10**30 if big else 40
        return Fraction(rng.randint(-top, top), rng.randint(1, 10**6 if big else 12))

    for i in range(count):
        P = bi_params(*(rat(i % 7 == 3) for _ in range(4)))
        d = i % 18 - 1
        yield P, Poly.make([rat(i % 5 == 1) for _ in range(d + 1)]) if d >= 0 else P_ZERO


def test_k1_apply_equals_composed_reference():
    # Field for field (nums and den) against K1 composed from Poly operations.
    for P, p in seeded_k1_cases(4000):
        got, want = k1_apply(P, p), k1_apply_composed(P, p)
        assert (got.nums, got.den) == (want.nums, want.den), (P, p)


def test_k1_apply_reduces_twice_and_reads_no_h(monkeypatch):
    # One reduction in poly_divide_exact and one of the sum; h comes from
    # the per-tuple numerators, not from P.h.
    import bi_lab.poly as poly

    P = bi_params(Fraction(-1, 3), Fraction(2, 7), 5, Fraction(-3, 2))
    want = [k1_apply(P, Poly.monomial(j).scale(Fraction(7, 3))) for j in range(10)]
    calls = 0
    def counted(*args, _orig=poly._canonical):
        nonlocal calls
        calls += 1
        return _orig(*args)
    def h_read(self):
        raise AssertionError("k1_apply read P.h")
    monkeypatch.setattr(poly, "_canonical", counted)
    monkeypatch.setattr(BIParams, "h", property(h_read))
    for j in range(10):
        mono = Poly.monomial(j).scale(Fraction(7, 3))
        calls = 0
        assert k1_apply(P, mono) == want[j]
        assert calls == (2 if j else 1)  # a constant's quotient is zero


def test_k1_matrix_equals_monomial_build():
    # The Q_j recurrence gives the same canonical matrix, field for field,
    # as k1_apply on each monomial, for numerators of about 10^30 over
    # denominators up to 10^6 too, and at h = 0 (a zero column).
    params = [P1, bi_params(0, 0, 0, 0), bi_params(0, 0, HALF, 0)]
    params += [P for P, _ in seeded_k1_cases(70)]
    assert any(P.k1_numerators[3] > 10**6 for P in params)
    for P in params:
        for n in range(17):
            assert k1_matrix(P, n) == monomial_matrix(P, k1_apply, n), (P, n)


def test_k2_from_diagonals():
    P = bi_params(Fraction(-1, 3), Fraction(2, 7), 5, Fraction(-3, 2))
    for d in range(13):
        assert bi_matrices(P, d)[1] == monomial_matrix(P, k2_apply, d + 3)


def test_one_matrix_build_per_tuple(monkeypatch):
    import bi_lab.bi_operator as bo

    calls, applied = [], []
    def counted(P, n, _orig=bo.k1_matrix):
        calls.append(n)
        return _orig(P, n)
    def apply_counted(*args, _orig=bo.k1_apply):
        applied.append(args)
        return _orig(*args)
    monkeypatch.setattr(bo, "k1_matrix", counted)
    monkeypatch.setattr(bo, "k1_apply", apply_counted)
    for _ in range(2):  # a second identical call does the same work again
        calls.clear()
        assert suite_bi(seed=1, tuples=1, maxdeg=12).passed
        # K1 on the monomials 1..x^14, once for the relations and the
        # Casimir, from the recurrence and not from k1_apply.
        assert calls == [15]
        assert applied == []


def test_relations_fail_without_h_term(monkeypatch):
    # K1 without its h term breaks both checked relations on every degree.
    f, g, _, L = P1.k1_numerators
    monkeypatch.setattr(BIParams, "k1_numerators", property(lambda self: (f, g, 0, L)))
    report = check_bi_relations(P1, bi_matrices(P1, 12))
    assert report.checked == 2 * 13
    assert len(report.failures) == report.checked


def test_casimir_fails_with_perturbed_k3():
    # K3 + I is no longer a generator: the Casimir gains 2 K3 + I, which
    # raises the degree, so it is not scalar on any x^j.
    K1, K2, K3 = bi_matrices(P1, 12)
    report = casimir_scalar(P1, (K1, K2, lincomb((1, K3), (1, LinOp.identity(15)))))
    assert report.checked == 13
    assert len(report.failures) == report.checked


def test_casimir_failure_fails_suite(monkeypatch):
    import bi_lab.suites as suites

    def perturbed(P, maxdeg, _orig=suites.bi_matrices):
        K1, K2, K3 = _orig(P, maxdeg)
        return K1, K2, lincomb((1, K3), (1, LinOp.identity(maxdeg + 3)))
    monkeypatch.setattr(suites, "bi_matrices", perturbed)
    report = suite_bi(seed=1, tuples=2, maxdeg=4)
    assert [(e.check, e.index, e.ok) for e in report.entries] == [
        ("BI relations", 0, False), ("Casimir scalar", 0, False),
        ("BI relations", 1, False), ("Casimir scalar", 1, False),
    ]
    assert "K1^2 + K2^2 + K3^2 = " in report.entries[1].detail


def formed_residuals(monkeypatch, module, run) -> tuple:
    """The result of run() and the (residuals, n) of each ``record_columns``
    call of module while it runs."""
    calls = []
    def record(report, residuals, n, _orig=module.record_columns):
        calls.append((residuals, n))
        _orig(report, residuals, n)
    monkeypatch.setattr(module, "record_columns", record)
    return run(), calls


def assert_no_truncation_column(calls):
    """No residual has a numerator in a column it does not record."""
    assert calls
    for residuals, n in calls:
        assert all(not any(r.nums[n:]) for _, r in residuals), [name for name, _ in residuals]


@pytest.mark.parametrize("mutant", [None, perturbed_k3], ids=["exact", "K3 + I"])
def test_relations_form_no_truncation_column(monkeypatch, mutant):
    # The residuals of the relations and the Casimir are formed on columns
    # 0..maxdeg only; under K3 + I, whose columns maxdeg + 1 and maxdeg + 2
    # would be nonzero, too.
    import bi_lab.bi_operator as bo

    if mutant:
        mutant(monkeypatch)
    report, calls = formed_residuals(monkeypatch, bo,
                                     lambda: suite_bi(seed=1, tuples=3, maxdeg=6))
    assert len(calls) == 6 and all(n == 7 for _, n in calls)
    assert report.passed is (mutant is None)
    assert_no_truncation_column(calls)
