"""Scalar layer: rationals, parsing, Pochhammer, Gaussian rationals."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bi_lab.errors import InvalidScalar
from bi_lab.exact import (
    GRAT_I,
    GRAT_MINUS_I,
    GRAT_ONE,
    GRAT_ZERO,
    GRat,
    grat_make,
    pochhammer,
    rat_make,
    rat_parse,
    rat_str,
    rat_to_float,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=100
)
grats = st.builds(GRat, rationals, rationals)


class TestRat:
    def test_make_reduces(self):
        assert rat_make(2, 4) == Fraction(1, 2)
        assert rat_make(-3, -6) == Fraction(1, 2)

    def test_make_zero_denominator(self):
        with pytest.raises(InvalidScalar):
            rat_make(1, 0)

    @pytest.mark.parametrize(
        "text,value",
        [("3/4", Fraction(3, 4)), ("-7/2", Fraction(-7, 2)),
         ("5", Fraction(5)), (" 1/3 ", Fraction(1, 3)), ("0", Fraction(0))],
    )
    def test_parse(self, text, value):
        assert rat_parse(text) == value

    @pytest.mark.parametrize("text", ["0.5", "1e3", "2.0/4", "a/b", "1/", ""])
    def test_parse_rejects(self, text):
        with pytest.raises(InvalidScalar):
            rat_parse(text)

    @given(rationals)
    def test_str_roundtrip(self, x):
        assert rat_parse(rat_str(x)) == x

    def test_str_always_has_denominator(self):
        assert rat_str(Fraction(3)) == "3/1"

    def test_to_float(self):
        assert rat_to_float(Fraction(1, 4)) == 0.25

    def test_pochhammer(self):
        assert pochhammer(Fraction(2), 3) == 24
        assert pochhammer(Fraction(1, 2), 0) == 1
        assert pochhammer(Fraction(-1, 2), 2) == Fraction(-1, 4)


class TestGRat:
    def test_constants(self):
        assert GRAT_I * GRAT_I == -GRAT_ONE
        assert GRAT_I * GRAT_MINUS_I == GRAT_ONE
        assert not GRAT_ZERO and GRAT_ONE

    @given(grats, grats)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(grats, grats)
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @given(grats, grats, grats)
    def test_associativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(grats, grats, grats)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(grats)
    def test_additive_inverse(self, a):
        assert a + (-a) == GRAT_ZERO
        assert a - a == GRAT_ZERO

    def test_scale(self):
        assert grat_make(1, 2).scale(Fraction(3)) == grat_make(3, 6)

    def test_to_json(self):
        assert grat_make(1, -2).to_json() == {"re": "1/1", "im": "-2/1"}
