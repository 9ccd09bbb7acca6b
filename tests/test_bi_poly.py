"""Bannai-Ito polynomials: three routes, ladders, V operator, weights."""

from fractions import Fraction

import pytest

from bi_lab.bi_operator import BIParams, k1_apply
from bi_lab.bi_poly import (
    bi_from_operator,
    bi_hypergeometric,
    bi_recurrence,
    complementary_bi,
    discrete_weights,
    discrete_weights_exact,
    eigenvalue,
    grid_point,
    ladder_apply,
    ladder_coeffs,
    recurrence_coeffs,
    v_apply,
)
from bi_lab.errors import DegenerateParameters, NotFinitelyOrthogonal
from bi_lab.exact import rat_to_float
from bi_lab.poly import P_ONE, P_ZERO, Poly, poly_eval
from bi_lab.racah import RacahParams

P1 = BIParams.make(1, 2, Fraction(1, 2), Fraction(1, 4))
R1 = RacahParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), 2)


class TestEigenvaluesAndCoeffs:
    def test_eigenvalues_p1(self):
        assert [eigenvalue(P1, n) for n in range(3)] == [
            Fraction(11, 4), Fraction(-15, 4), Fraction(19, 4)
        ]

    def test_recurrence_coeffs_p1(self):
        rc = recurrence_coeffs(P1, 0)
        assert rc.A == Fraction(5, 13) and rc.C == 0

    def test_c0_always_zero(self):
        rc = recurrence_coeffs(BIParams.make(2, 3, Fraction(1, 3), 1), 0)
        assert rc.C == 0

    def test_truncation_at_racah_params(self):
        assert recurrence_coeffs(R1.identifications(), 2).A == 0

    def test_degenerate_denominator(self):
        # rho1+rho2-r1-r2+1 = 0 at n = 0
        bad = BIParams.make(0, 0, Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(DegenerateParameters):
            recurrence_coeffs(bad, 0)


class TestThreeRoutes:
    def test_b0_and_b1(self):
        assert bi_recurrence(P1, 0) == P_ONE
        assert bi_recurrence(P1, 1) == Poly.make([Fraction(-8, 13), 1])

    @pytest.mark.parametrize("n", range(11))
    def test_triple_oracle_p1(self, n):
        rec = bi_recurrence(P1, n)
        assert rec == bi_hypergeometric(P1, n)
        assert rec == bi_from_operator(P1, n)

    @pytest.mark.parametrize("n", range(13))
    def test_eigen_equation(self, n):
        bn = bi_recurrence(P1, n)
        assert k1_apply(P1, bn) == bn.scale(eigenvalue(P1, n))

    def test_monic(self):
        for n in range(8):
            assert bi_recurrence(P1, n).coeffs[-1] == 1

    def test_hypergeometric_n0(self):
        assert bi_hypergeometric(P1, 0) == P_ONE


class TestGrid:
    def test_grid_rho1_one(self):
        P = BIParams.make(1, 0, 0, 0)
        assert [grid_point(P, s) for s in range(3)] == [1, -2, 2]


class TestLadders:
    def test_plus_kills_b0(self):
        assert ladder_apply(P1, "+", bi_recurrence(P1, 0)) == P_ZERO

    def test_minus_on_b0(self):
        got = ladder_apply(P1, "-", bi_recurrence(P1, 0))
        assert got == bi_recurrence(P1, 1).scale(13)
        assert ladder_coeffs(P1, 0).beta0 == 13

    def test_plus_on_b1(self):
        got = ladder_apply(P1, "+", bi_recurrence(P1, 1))
        assert got == bi_recurrence(P1, 2).scale(-17)
        assert ladder_coeffs(P1, 1).alpha1 == -17

    @pytest.mark.parametrize("n", range(11))
    def test_parity_actions_closed_forms(self, n):
        bn = bi_recurrence(P1, n)
        lc = ladder_coeffs(P1, n)
        if n % 2 == 0:
            up = P_ZERO if n == 0 else bi_recurrence(P1, n - 1).scale(lc.alpha0)
            assert ladder_apply(P1, "+", bn) == up
            assert ladder_apply(P1, "-", bn) == bi_recurrence(P1, n + 1).scale(lc.beta0)
        else:
            assert ladder_apply(P1, "+", bn) == bi_recurrence(P1, n + 1).scale(lc.alpha1)
            assert ladder_apply(P1, "-", bn) == bi_recurrence(P1, n - 1).scale(lc.beta1)

    @pytest.mark.parametrize("d", range(13))
    def test_anticommutation_with_k1(self, d):
        # {K1, K±} = ±K± on every monomial.
        mono = Poly.monomial(d)
        for sign, expect in (("+", 1), ("-", -1)):
            lhs = k1_apply(P1, ladder_apply(P1, sign, mono)) + \
                ladder_apply(P1, sign, k1_apply(P1, mono))
            assert lhs == ladder_apply(P1, sign, mono).scale(expect)


class TestVOperator:
    @pytest.mark.parametrize("d", range(11))
    def test_two_forms_agree(self, d):
        mono = Poly.monomial(d)
        assert v_apply(P1, mono, "first") == v_apply(P1, mono, "second")

    @pytest.mark.parametrize("n", range(11))
    def test_action_on_bn_two_diagonal(self, n):
        bn = bi_recurrence(P1, n)
        lam = eigenvalue(P1, n)
        lc = ladder_coeffs(P1, n)
        half = Fraction(1, 2)
        if n % 2 == 0:
            lower = P_ZERO if n == 0 else \
                bi_recurrence(P1, n - 1).scale((lam + half) * lc.alpha0)
            upper = bi_recurrence(P1, n + 1).scale((lam - half) * lc.beta0)
        else:
            lower = bi_recurrence(P1, n - 1).scale((lam - half) * lc.beta1)
            upper = bi_recurrence(P1, n + 1).scale((lam + half) * lc.alpha1)
        assert v_apply(P1, bn, "first") == lower + upper

    @pytest.mark.parametrize("n", range(11))
    def test_action_on_bn_multiplicative(self, n):
        bn = bi_recurrence(P1, n)
        lam = eigenvalue(P1, n)
        factor = Poly.make([1, 4]).scale(lam**2 - Fraction(1, 4)) - \
            Poly.const(P1.omega3 * lam + P1.omega2 / 2)
        assert v_apply(P1, bn, "second") == factor * bn

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            v_apply(P1, P_ONE, "third")


class TestComplementary:
    def test_i0(self):
        assert complementary_bi(P1, 0) == P_ONE

    @pytest.mark.parametrize("n", range(9))
    def test_degree(self, n):
        p = complementary_bi(P1, n)
        assert p.degree() == n
        assert p.coeffs[-1] == 1


class TestDiscreteWeights:
    def test_n0_single_node(self):
        P = RacahParams.make(
            Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), 0
        ).identifications()
        assert recurrence_coeffs(P, 0).A == 0
        nodes = discrete_weights(P, 0)
        assert nodes == [(rat_to_float(P.rho1), 1.0)]

    def test_racah_truncation(self):
        P = R1.identifications()
        out = discrete_weights(P, 2)
        grid = [rat_to_float(grid_point(P, s)) for s in range(3)]
        for (node, weight), x in zip(out, grid):
            assert abs(node - x) < 1e-10
            assert weight > 0
        assert abs(sum(w for _, w in out) - 1.0) < 1e-12

    def test_orthogonality(self):
        P = R1.identifications()
        out = discrete_weights(P, 2)
        polys = [bi_recurrence(P, n) for n in range(3)]
        for m in range(3):
            for n in range(m + 1, 3):
                total = sum(
                    w * rat_to_float(poly_eval(polys[m], grid_point(P, s)))
                    * rat_to_float(poly_eval(polys[n], grid_point(P, s)))
                    for s, (_, w) in enumerate(out)
                )
                assert abs(total) < 1e-9

    def test_requires_truncation(self):
        with pytest.raises(NotFinitelyOrthogonal):
            discrete_weights(P1, 3)  # A_3 != 0 for P1

    def test_exact_weights_match_eigensolve(self):
        P = R1.identifications()
        exact = discrete_weights_exact(P, 2)
        floats = discrete_weights(P, 2)
        assert sum(w for _, w in exact) == 1
        for (x, w), (node, weight) in zip(exact, floats):
            assert abs(rat_to_float(x) - node) < 1e-10
            assert abs(rat_to_float(w) - weight) < 1e-10

    def test_exact_orthogonality_is_exact(self):
        P = R1.identifications()
        exact = discrete_weights_exact(P, 2)
        polys = [bi_recurrence(P, n) for n in range(3)]
        for m in range(3):
            for n in range(3):
                total = sum(
                    w * poly_eval(polys[m], x) * poly_eval(polys[n], x)
                    for x, w in exact
                )
                if m != n:
                    assert total == 0
