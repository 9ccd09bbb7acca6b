"""Shift-reflection realization: frozen values and exact relations."""

from fractions import Fraction

import pytest

from bi_lab.bi_operator import (
    BIParams,
    bi_matrices,
    casimir_scalar,
    check_bi_relations,
    k1_apply,
    k2_apply,
    k3_apply,
)
from bi_lab.poly import P_ONE, Poly

P1 = BIParams.make(1, 2, Fraction(1, 2), Fraction(1, 4))


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
        assert casimir_scalar(P1, 8) == Fraction(83, 8)

    def test_k1_matrix(self):
        K1, _, _ = bi_matrices(P1, 0)
        assert K1.cols[:2] == (
            {0: Fraction(11, 4)},
            {0: Fraction(4), 1: Fraction(-15, 4)},
        )


class TestStructure:
    def test_relations_hold(self):
        assert check_bi_relations(P1, 10).passed

    @pytest.mark.parametrize(
        "params",
        [BIParams.make(0, 0, 0, 0),
         BIParams.make(Fraction(-1, 3), Fraction(2, 7), 5, Fraction(-3, 2))],
    )
    def test_relations_other_params(self, params):
        assert check_bi_relations(params, 8).passed

    def test_degree_preserved(self):
        for d in range(8):
            assert k1_apply(P1, Poly.monomial(d)).degree() == d
            assert k3_apply(P1, Poly.monomial(d)).degree() == d + 1

    def test_k1_matrix_upper_triangular(self):
        K1, _, _ = bi_matrices(P1, 6)
        assert all(i <= j for j, col in enumerate(K1.cols) for i in col)

    def test_k1_diagonal_is_spectrum(self):
        K1, _, _ = bi_matrices(P1, 6)
        for n in range(7):
            want = (n + P1.h) * (1 if n % 2 == 0 else -1)
            assert K1.cols[n][n] == want

    def test_matrices_match_operators(self):
        # Columns 0..maxdeg of K3 and of a product of generators are the
        # images of x^j, despite the truncated basis.
        def column(p: Poly) -> dict:
            return {i: c for i, c in enumerate(p.coeffs) if c}

        K1, K2, K3 = bi_matrices(P1, 5)
        for j in range(6):
            mono = Poly.monomial(j)
            assert K3.cols[j] == column(k3_apply(P1, mono))
            assert (K3 @ K2).cols[j] == column(k3_apply(P1, k2_apply(P1, mono)))
            assert (K1 @ K3).cols[j] == column(k1_apply(P1, k3_apply(P1, mono)))

    def test_casimir_closed_form(self):
        value = casimir_scalar(P1)
        assert value == 2 * (
            P1.rho1**2 + P1.rho2**2 + P1.r1**2 + P1.r2**2
        ) - Fraction(1, 4)
