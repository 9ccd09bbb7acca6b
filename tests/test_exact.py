"""Scalar layer: rationals, parsing, Gaussian rationals."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bi_lab.errors import BILabError
from bi_lab.exact import (
    GRAT_I,
    GRAT_MINUS_I,
    GRAT_ONE,
    GRat,
    rat_parse,
    rat_str,
    rat_to_float,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=100
)
grats = st.builds(GRat, rationals, rationals)


class TestRat:
    def test_parse_reduces(self):
        assert rat_parse("2/4") == Fraction(1, 2)
        assert rat_parse("-3/-6") == Fraction(1, 2)

    def test_parse_zero_denominator(self):
        with pytest.raises(BILabError, match="^zero denominator in 1/0$"):
            rat_parse("1/0")

    @pytest.mark.parametrize(
        "text,value",
        [("3/4", Fraction(3, 4)), ("-7/2", Fraction(-7, 2)),
         ("5", Fraction(5)), (" 1/3 ", Fraction(1, 3)), ("0", Fraction(0))],
    )
    def test_parse(self, text, value):
        assert rat_parse(text) == value

    @pytest.mark.parametrize("text,message", [
        *((t, "decimal literals are not accepted") for t in ("0.5", "1e3", "2.0/4")),
        *((t, "cannot parse rational from")
          for t in ("a/b", "1/", "", "1/2/3", "seven", "1_0/3", "\uff15")),
    ])
    def test_parse_rejects(self, text, message):
        with pytest.raises(BILabError, match=f"^{message}"):
            rat_parse(text)

    @given(rationals)
    def test_str_roundtrip(self, x):
        assert rat_parse(rat_str(x)) == x

    def test_str_always_has_denominator(self):
        assert rat_str(Fraction(3)) == "3/1"

    def test_to_float(self):
        assert rat_to_float(Fraction(1, 4)) == 0.25


class TestGRat:
    def test_constants(self):
        assert GRAT_I * GRAT_I == -GRAT_ONE
        assert GRAT_I * GRAT_MINUS_I == GRAT_ONE
        assert not GRat() and GRAT_ONE

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
        assert a + (-a) == GRat()
        assert a - a == GRat()

    def test_scale(self):
        assert GRat(Fraction(1), Fraction(2)).scale(Fraction(3)) == \
            GRat(Fraction(3), Fraction(6))
