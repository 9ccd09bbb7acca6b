"""Exact scalar arithmetic: rationals and Gaussian rationals.

Rationals are ``fractions.Fraction`` (arbitrary-precision, always kept in
canonical reduced form with positive denominator).  The type alias ``Rat``
is used throughout the package.  Gaussian rationals a + b*i are a frozen
pair of Fractions; they appear only where the imaginary unit is needed
(angular-momentum operators and Pauli matrices).

All values are immutable and all operations pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import BILabError

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


_INT = "[+-]?[0-9]+"
_DECIMAL = r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?"
_RATIONAL_RE = re.compile(f"{_INT}(/{_INT})?")
_DECIMAL_RE = re.compile(f"{_DECIMAL}(/{_DECIMAL})?")


def rat_parse(text: str) -> Rat:
    """Parse "p/q" or an integer literal, in ASCII digits, into a rational.

    Decimal notation is rejected deliberately: it invites silent
    precision loss at the user surface.  So are the forms ``int`` accepts
    beyond ASCII digits, such as "1_0" and non-ASCII digits.
    """
    text = text.strip()
    if not _RATIONAL_RE.fullmatch(text):
        if _DECIMAL_RE.fullmatch(text):
            raise BILabError(f"decimal literals are not accepted: {text!r}")
        raise BILabError(f"cannot parse rational from {text!r}")
    num, _, den = text.partition("/")
    num, den = int(num), int(den or 1)
    if den == 0:
        raise BILabError(f"zero denominator in {num}/{den}")
    return Fraction(num, den)


def rat_str(x: Rat) -> str:
    """Serialize as "p/q" (always with an explicit denominator)."""
    return f"{x.numerator}/{x.denominator}"


def rat_to_float(x: Rat) -> float:
    """The single sanctioned exact-to-float conversion (round to nearest)."""
    return x.numerator / x.denominator


@dataclass(frozen=True)
class GRat:
    """Gaussian rational re + im*i with exact rational components."""

    re: Rat = ZERO
    im: Rat = ZERO

    def __add__(self, other: "GRat") -> "GRat":
        return GRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GRat") -> "GRat":
        return GRat(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GRat":
        return GRat(-self.re, -self.im)

    def __mul__(self, other: "GRat") -> "GRat":
        return GRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def scale(self, c: Rat) -> "GRat":
        return GRat(c * self.re, c * self.im)

    def __repr__(self) -> str:
        return f"GRat({self.re}, {self.im})"


GRAT_ONE = GRat(ONE, ZERO)
GRAT_I = GRat(ZERO, ONE)
GRAT_MINUS_I = GRat(ZERO, -ONE)
