"""Dense univariate polynomials over exact rationals, stored fraction-free.

Integer numerators over one common denominator: sums and products run on
Python ints and reduce once per result, not once per coefficient.  The
module also carries the two operator primitives of the shift-reflection
realization: the reflection x -> -x and the composite x -> -x - 1
(reflection followed by the unit shift).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BILabError
from .exact import Rat


@dataclass(frozen=True)
class Poly:
    """p(x) = sum_k nums[k] x^k / den, lowest degree first, in canonical
    form: den > 0, no trailing zero numerator (zero has none and degree
    -1) and gcd(den, *nums) = 1, so equal polynomials have equal fields."""

    nums: tuple[int, ...]
    den: int = 1

    @staticmethod
    def make(coeffs: Iterable[Rat | int]) -> "Poly":
        cs = list(coeffs)
        den = math.lcm(1, *(c.denominator for c in cs))
        return _canonical([c.numerator * (den // c.denominator) for c in cs], den)

    @staticmethod
    def from_ints(nums: list[int], den: int) -> "Poly":
        """sum_k nums[k] x^k / den for integers with den != 0, reduced once."""
        if den < 0:
            nums, den = [-a for a in nums], -den
        return _canonical(list(nums), den)

    @staticmethod
    def const(c: Rat | int) -> "Poly":
        return Poly.make([c])

    @staticmethod
    def monomial(k: int) -> "Poly":
        """x^k, written directly in canonical form."""
        return Poly((0,) * k + (1,))

    @property
    def coeffs(self) -> tuple[Rat, ...]:
        """The coefficients as Fractions; built anew on every access."""
        return tuple(Fraction(a, self.den) for a in self.nums)

    def degree(self) -> int:
        """Degree, with -1 standing in for the degree of zero."""
        return len(self.nums) - 1

    def __bool__(self) -> bool:  # false exactly for the zero polynomial
        return bool(self.nums)

    def __add__(self, other: "Poly") -> "Poly":
        return self._plus(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._plus(other, -1)

    def _plus(self, other: "Poly", sign: int) -> "Poly":
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = [fa * a for a in self.nums] + [0] * (len(other.nums) - len(self.nums))
        for k, b in enumerate(other.nums):
            out[k] += fb * b
        return _canonical(out, den)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-a for a in self.nums), self.den)

    def __mul__(self, other: "Poly") -> "Poly":
        return _canonical(int_mul(self.nums, other.nums), self.den * other.den)

    def scale(self, c: Rat | int) -> "Poly":
        return _canonical([c.numerator * a for a in self.nums], self.den * c.denominator)

    def to_json(self) -> list[str]:
        """The coefficients as "p/q" strings, read off ``nums`` and ``den``
        with one gcd each (the same strings as ``rat_str`` of ``coeffs``)."""
        out = []
        for a in self.nums:
            g = math.gcd(a, self.den)
            out.append(f"{a // g}/{self.den // g}")
        return out


def int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer coefficient lists, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return out


def _canonical(nums: list[int], den: int) -> Poly:
    """nums / den with trailing zeros dropped and common factors cancelled."""
    while nums and not nums[-1]:
        nums.pop()
    g = math.gcd(den, *nums)
    return Poly(tuple(a // g for a in nums) if g != 1 else tuple(nums), den // g)


P_ZERO = Poly(())
P_ONE = Poly.const(1)


def poly_reflect(p: Poly) -> Poly:
    """p(x) -> p(-x): negate odd-degree numerators."""
    return Poly(tuple(-a if k % 2 else a for k, a in enumerate(p.nums)), p.den)


def poly_shift_reflect(p: Poly) -> Poly:
    """p(x) -> p(-x-1): reflection first, then the unit forward shift.

    This operator order matches the composite T+R of the first-order
    realization; it is an involution since x -> -x-1 is.  The unit shift
    of p(-x) is an invertible integer map, so the form stays canonical.
    """
    a = [-x if k % 2 else x for k, x in enumerate(p.nums)]
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return Poly(tuple(a), p.den)


def poly_divide_exact(p: Poly, root: Rat) -> Poly:
    """Exact quotient p / (x - root); raises BILabError on remainder.

    Synthetic division with root = r/s over den s^(d-1): quotient numerator
    q_(k-1) = s^(d-1) nums[k] + r q_k / s, exact since q_k has a factor s^k.
    """
    if not p:
        return P_ZERO
    r, s = root.numerator, root.denominator
    top = s ** max(p.degree() - 1, 0)
    quot, carry = [], 0
    for a in reversed(p.nums[1:]):
        carry = a * top + r * (carry // s)
        quot.append(carry)
    remainder = p.nums[0] * top * s + r * carry
    if remainder:
        remainder = Fraction(remainder, p.den * top * s)
        raise BILabError(f"remainder {remainder} dividing by (x - {root})")
    return _canonical(quot[::-1], p.den * top)
