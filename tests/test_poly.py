"""Univariate polynomial layer and its operator primitives."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from bi_lab.errors import NotDivisible
from bi_lab.poly import (
    P_ZERO,
    Poly,
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


def horner_shift_reflect(p: Poly) -> Poly:
    """p(-x-1) by Horner's rule in the argument -x-1 (reference)."""
    arg = Poly.make([-1, -1])
    acc = P_ZERO
    for c in reversed(p.coeffs):
        acc = acc * arg + Poly.const(c)
    return acc


class TestShiftReflect:
    def test_monomials_match_horner(self):
        for k in range(21):
            mono = Poly.monomial(k)
            assert poly_shift_reflect(mono) == horner_shift_reflect(mono)

    @given(st.lists(rationals, max_size=16).map(Poly.make))
    def test_matches_horner(self, p):
        assert poly_shift_reflect(p) == horner_shift_reflect(p)

    @pytest.mark.parametrize("coeffs", [
        [],
        [5],
        [0, 1],
        [Fraction(1, 2), -3, 0, Fraction(7, 4)],
        [0] * 10 + [1],
        [Fraction(-2, 3), Fraction(1, 5), 0, 0, Fraction(9, 7), -1],
    ])
    def test_matches_sympy(self, coeffs):
        x = sympy.symbols("x")
        p = Poly.make(coeffs)
        expr = sum((sympy.Rational(c.numerator, c.denominator) * x**k
                    for k, c in enumerate(p.coeffs)), sympy.Integer(0))
        want = sympy.Poly(sympy.expand(expr.subs(x, -x - 1)), x).all_coeffs()
        assert poly_shift_reflect(p) == Poly.make(
            Fraction(int(c.p), int(c.q)) for c in reversed(want)
        )
