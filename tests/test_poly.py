"""Univariate polynomial layer and its operator primitives."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bi_lab.errors import NotDivisible
from bi_lab.poly import (
    P_ONE,
    P_X,
    P_ZERO,
    Poly,
    pochhammer_poly,
    poly_derivative,
    poly_divide_exact,
    poly_eval,
    poly_reflect,
    poly_shift_reflect,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
polys = st.lists(rationals, max_size=8).map(Poly.make)


class TestRing:
    def test_trailing_zeros_trimmed(self):
        assert Poly.make([1, 2, 0, 0]) == Poly.make([1, 2])

    def test_zero_degree(self):
        assert P_ZERO.degree() == -1
        assert P_ZERO.is_zero()
        assert Poly.const(3).degree() == 0

    def test_monomial(self):
        assert Poly.monomial(3, 2) == Poly.make([0, 0, 0, 2])

    @given(polys, polys)
    def test_add_commutes(self, p, q):
        assert p + q == q + p

    @given(polys, polys)
    def test_mul_commutes(self, p, q):
        assert p * q == q * p

    @given(polys, polys, polys)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys)
    def test_additive_inverse(self, p):
        assert p + (-p) == P_ZERO

    @given(polys, polys)
    def test_degree_of_product(self, p, q):
        if not p.is_zero() and not q.is_zero():
            assert (p * q).degree() == p.degree() + q.degree()


class TestEvalAndOperators:
    @given(polys, rationals)
    def test_eval_matches_sum(self, p, x):
        assert poly_eval(p, x) == sum(
            (c * x**k for k, c in enumerate(p.coeffs)), Fraction(0)
        )

    @given(polys)
    def test_reflect_involution(self, p):
        assert poly_reflect(poly_reflect(p)) == p

    @given(polys, rationals)
    def test_reflect_pointwise(self, p, x):
        assert poly_eval(poly_reflect(p), x) == poly_eval(p, -x)

    @given(polys)
    def test_shift_reflect_involution(self, p):
        assert poly_shift_reflect(poly_shift_reflect(p)) == p

    @given(polys, rationals)
    def test_shift_reflect_pointwise(self, p, x):
        assert poly_eval(poly_shift_reflect(p), x) == poly_eval(p, -x - 1)

    @given(polys, rationals)
    def test_divide_exact_inverts_multiplication(self, q, root):
        p = q * Poly.make([-root, 1])
        assert poly_divide_exact(p, root) == q

    def test_divide_exact_rejects_remainder(self):
        with pytest.raises(NotDivisible):
            poly_divide_exact(Poly.make([1, 1]), Fraction(1))

    @given(polys, polys)
    def test_derivative_leibniz(self, p, q):
        lhs = poly_derivative(p * q)
        assert lhs == poly_derivative(p) * q + p * poly_derivative(q)

    def test_pochhammer_poly(self):
        # x (x+1) (x+2)
        assert pochhammer_poly(P_X, 3) == Poly.make([0, 2, 3, 1])
        assert pochhammer_poly(P_X, 0) == P_ONE
