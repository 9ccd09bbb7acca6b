"""Dense univariate polynomials over exact rationals.

Coefficients are stored lowest degree first with trailing zeros trimmed;
the zero polynomial is the empty tuple and reports degree -1.  Besides
ring arithmetic, the module carries the two operator primitives the
shift-reflection realization is built from: the reflection x -> -x and
the composite x -> -x - 1 (reflection followed by the unit shift).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import NotDivisible
from .exact import Rat, ZERO, rat_str


@dataclass(frozen=True)
class Poly:
    coeffs: tuple[Rat, ...]

    @staticmethod
    def make(coeffs: Iterable[Rat | int]) -> "Poly":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs))

    @staticmethod
    def const(c: Rat | int) -> "Poly":
        return Poly.make([c])

    @staticmethod
    def monomial(k: int, c: Rat | int = 1) -> "Poly":
        return Poly.make([0] * k + [c])

    def degree(self) -> int:
        """Degree, with -1 standing in for the degree of zero."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Rat:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.make(self.coeff(k) + other.coeff(k) for k in range(n))

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.make(self.coeff(k) - other.coeff(k) for k in range(n))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return P_ZERO
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly.make(out)

    def scale(self, c: Rat | int) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return P_ZERO
        return Poly(tuple(c * a for a in self.coeffs))

    def to_json(self) -> list[str]:
        return [rat_str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = [f"({c})*x^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + " + ".join(terms) + ")"


P_ZERO = Poly(())
P_ONE = Poly.const(1)
P_X = Poly.monomial(1)


def poly_eval(p: Poly, x0: Rat) -> Rat:
    """Exact Horner evaluation."""
    acc = ZERO
    for c in reversed(p.coeffs):
        acc = acc * x0 + c
    return acc


def poly_reflect(p: Poly) -> Poly:
    """p(x) -> p(-x): negate odd-degree coefficients."""
    return Poly(tuple(-c if k % 2 else c for k, c in enumerate(p.coeffs)))


def poly_shift_reflect(p: Poly) -> Poly:
    """p(x) -> p(-x-1): reflection first, then the unit forward shift.

    This operator order matches the composite T+R of the first-order
    realization; it is an involution since x -> -x-1 is.
    """
    # Horner in the argument (-x - 1).
    arg = Poly.make([-1, -1])
    acc = P_ZERO
    for c in reversed(p.coeffs):
        acc = acc * arg + Poly.const(c)
    return acc


def poly_divide_exact(p: Poly, root: Rat) -> Poly:
    """Exact quotient p / (x - root); raises NotDivisible on remainder."""
    if p.is_zero():
        return P_ZERO
    # Synthetic division.
    out: list[Rat] = [ZERO] * p.degree()
    carry = ZERO
    for k in range(p.degree(), 0, -1):
        carry = p.coeff(k) + root * carry
        out[k - 1] = carry
    remainder = p.coeff(0) + root * carry
    if remainder != 0:
        raise NotDivisible(f"remainder {remainder} dividing by (x - {root})")
    return Poly.make(out)


def poly_derivative(p: Poly) -> Poly:
    return Poly.make(k * p.coeff(k) for k in range(1, len(p.coeffs)))


def pochhammer_poly(base: Poly, k: int) -> Poly:
    """Rising factorial base*(base+1)*...*(base+k-1) of a polynomial base."""
    out = P_ONE
    for j in range(k):
        out = out * (base + Poly.const(j))
    return out
