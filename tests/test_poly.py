"""Univariate polynomial layer and its operator primitives."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from bi_lab.errors import BILabError
from bi_lab.poly import (
    P_ONE,
    P_ZERO,
    Poly,
    poly_divide_exact,
    poly_reflect,
    poly_shift_reflect,
)
from poly_oracle import poly_eval

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
polys = st.lists(rationals, max_size=8).map(Poly.make)


class TestRing:
    def test_trailing_zeros_trimmed(self):
        assert Poly.make([1, 2, 0, 0]) == Poly.make([1, 2])

    def test_zero_degree(self):
        assert P_ZERO.degree() == -1
        assert not P_ZERO and P_ONE and Poly.make([0, 0, 1])
        assert not Poly.make([0, 0]) and not hasattr(Poly, "is_zero")
        assert Poly.const(3).degree() == 0

    def test_monomial(self):
        assert Poly.monomial(3).scale(2) == Poly.make([0, 0, 0, 2])

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
        if p and q:
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
        with pytest.raises(BILabError, match=r"^remainder 2 dividing by \(x - 1\)$"):
            poly_divide_exact(Poly.make([1, 1]), Fraction(1))


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


# ---------------------------------------------------------------------------
# The fraction-free representation against a naive Fraction reference.
#
# The reference keeps one Fraction per coefficient, lowest degree first,
# trailing zeros trimmed, and works coefficient by coefficient.

def ref_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_coeff(a, k):
    return a[k] if 0 <= k < len(a) else Fraction(0)


def ref_add(a, b):
    return ref_trim(ref_coeff(a, k) + ref_coeff(b, k) for k in range(max(len(a), len(b))))


def ref_sub(a, b):
    return ref_trim(ref_coeff(a, k) - ref_coeff(b, k) for k in range(max(len(a), len(b))))


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_scale(a, c):
    return ref_trim(c * x for x in a)


def ref_reflect(a):
    return tuple(-c if k % 2 else c for k, c in enumerate(a))


def ref_shift_reflect(a):
    return ref_trim(
        sum((math.comb(k, i) * (-1) ** k * a[k] for k in range(i, len(a))), Fraction(0))
        for i in range(len(a))
    )


def ref_divide(a, root):
    """Synthetic division; returns (quotient, remainder)."""
    if not a:
        return (), Fraction(0)
    out = [Fraction(0)] * (len(a) - 1)
    carry = Fraction(0)
    for k in range(len(a) - 1, 0, -1):
        carry = a[k] + root * carry
        out[k - 1] = carry
    return ref_trim(out), a[0] + root * carry


def assert_canonical(p: Poly):
    assert p.den > 0
    assert math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert all(type(a) is int for a in (*p.nums, p.den))
    if not p.nums:
        assert p == P_ZERO


coefficient_lists = st.lists(rationals, max_size=8)


class TestRepresentation:
    @given(coefficient_lists)
    def test_make_is_canonical_and_exact(self, cs):
        p = Poly.make(cs)
        assert_canonical(p)
        assert p.coeffs == ref_trim(cs)
        assert all(type(c) is Fraction for c in p.coeffs)

    @given(coefficient_lists, coefficient_lists)
    def test_ring_ops_match_reference(self, cs, ds):
        p, q = Poly.make(cs), Poly.make(ds)
        a, b = ref_trim(cs), ref_trim(ds)
        for got, want in ((p + q, ref_add(a, b)), (p - q, ref_sub(a, b)),
                          (p * q, ref_mul(a, b)), (-p, ref_sub((), a))):
            assert_canonical(got)
            assert got.coeffs == want

    @given(coefficient_lists, rationals)
    def test_scale_matches_reference(self, cs, c):
        got = Poly.make(cs).scale(c)
        assert_canonical(got)
        assert got.coeffs == ref_scale(ref_trim(cs), c)

    @given(coefficient_lists)
    def test_operators_match_reference(self, cs):
        p, a = Poly.make(cs), ref_trim(cs)
        for got, want in ((poly_reflect(p), ref_reflect(a)),
                          (poly_shift_reflect(p), ref_shift_reflect(a))):
            assert_canonical(got)
            assert got.coeffs == want

    @given(coefficient_lists, rationals)
    def test_divide_matches_reference(self, cs, root):
        a = ref_trim(cs)
        quotient, remainder = ref_divide(a, root)
        p = Poly.make(cs) - Poly.const(remainder)   # divisible by (x - root)
        got = poly_divide_exact(p, root)
        assert_canonical(got)
        assert got.coeffs == quotient
        if remainder:
            with pytest.raises(BILabError, match=r"^remainder .* dividing by \(x - "):
                poly_divide_exact(Poly.make(cs), root)

    @given(coefficient_lists, rationals)
    def test_eval_matches_reference(self, cs, x):
        assert poly_eval(Poly.make(cs), x) == sum(
            (c * x**k for k, c in enumerate(ref_trim(cs))), Fraction(0)
        )

    def test_common_factor_cancelled(self):
        p = Poly.make([Fraction(1, 2), Fraction(3, 2)]) + Poly.make([Fraction(1, 2), Fraction(1, 2)])
        assert (p.nums, p.den) == ((1, 2), 1)
        assert (Poly.make([Fraction(2, 3)]) - Poly.make([Fraction(2, 3)])) == P_ZERO
        assert P_ZERO.nums == () and P_ZERO.den == 1


class TestDivideNonIntegerRoots:
    @pytest.mark.parametrize("root", [Fraction(-1, 2), Fraction(3, 7)])
    @pytest.mark.parametrize("coeffs", [
        [1],
        [Fraction(2, 5), -1, Fraction(7, 3)],
        [0, 0, 0, Fraction(-9, 4), 1],
        [Fraction(1, 6), Fraction(-5, 2), 0, 3, Fraction(11, 13), -2],
    ])
    def test_matches_sympy(self, coeffs, root):
        x = sympy.symbols("x")
        q = Poly.make(coeffs)
        p = q * Poly.make([-root, 1])
        got = poly_divide_exact(p, root)
        assert got == q
        expr = sum((sympy.Rational(c.numerator, c.denominator) * x**k
                    for k, c in enumerate(p.coeffs)), sympy.Integer(0))
        r = sympy.Rational(root.numerator, root.denominator)
        want, rem = sympy.div(sympy.Poly(expr, x), sympy.Poly(x - r, x))
        assert rem.is_zero
        assert got.coeffs == tuple(
            Fraction(int(c.p), int(c.q)) for c in reversed(want.all_coeffs())
        )

    @pytest.mark.parametrize("coeffs, root, message", [
        ([1, 1], Fraction(1), "remainder 2 dividing by (x - 1)"),
        ([Fraction(1, 3), 2, 1], Fraction(-1, 2), "remainder -5/12 dividing by (x - -1/2)"),
        ([0, 0, 1], Fraction(3, 7), "remainder 9/49 dividing by (x - 3/7)"),
        ([5], Fraction(3, 7), "remainder 5 dividing by (x - 3/7)"),
    ])
    def test_not_divisible_reports_exact_remainder(self, coeffs, root, message):
        with pytest.raises(BILabError) as exc:
            poly_divide_exact(Poly.make(coeffs), root)
        assert str(exc.value) == message
