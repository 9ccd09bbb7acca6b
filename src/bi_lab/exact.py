"""Exact scalar arithmetic: rationals and Gaussian rationals.

Rationals are ``fractions.Fraction`` (arbitrary-precision, always kept in
canonical reduced form with positive denominator).  The type alias ``Rat``
is used throughout the package.  Gaussian rationals a + b*i are a frozen
pair of Fractions; they appear only where the imaginary unit is needed
(angular-momentum operators and Pauli matrices).

All values are immutable and all operations pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidScalar

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def rat_make(n: int, d: int = 1) -> Rat:
    """Canonical rational n/d (reduced, positive denominator)."""
    if d == 0:
        raise InvalidScalar(f"zero denominator in {n}/{d}")
    return Fraction(n, d)


def rat_parse(text: str) -> Rat:
    """Parse "p/q" or an integer literal into a rational.

    Decimal notation is rejected deliberately: it invites silent
    precision loss at the user surface.
    """
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise InvalidScalar(f"decimal literals are not accepted: {text!r}")
    try:
        if "/" in text:
            num, den = text.split("/")
            return rat_make(int(num), int(den))
        return Fraction(int(text))
    except ValueError as exc:
        raise InvalidScalar(f"cannot parse rational from {text!r}") from exc


def rat_str(x: Rat) -> str:
    """Serialize as "p/q" (always with an explicit denominator)."""
    return f"{x.numerator}/{x.denominator}"


def rat_to_float(x: Rat) -> float:
    """The single sanctioned exact-to-float conversion (round to nearest)."""
    return x.numerator / x.denominator


def pochhammer(base: Rat, k: int) -> Rat:
    """Rising factorial base*(base+1)*...*(base+k-1); empty product is 1."""
    out = ONE
    for j in range(k):
        out *= base + j
    return out


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

    def to_json(self) -> dict:
        return {"re": rat_str(self.re), "im": rat_str(self.im)}

    def __repr__(self) -> str:
        return f"GRat({self.re}, {self.im})"


GRAT_ZERO = GRat()
GRAT_ONE = GRat(ONE, ZERO)
GRAT_I = GRat(ZERO, ONE)
GRAT_MINUS_I = GRat(ZERO, -ONE)


def grat_make(re: Rat | int, im: Rat | int = 0) -> GRat:
    return GRat(Fraction(re), Fraction(im))
