"""Test-side references on ``Poly``.

The package never evaluates a polynomial at a point; the tests use
``poly_eval`` to check orthogonality sums, overlaps and the reflection
primitives.  The package builds K3 only as a matrix, in ``bi_matrices``;
``k3_apply`` is the reference that the matrix tests compare against.
"""

from fractions import Fraction

from bi_lab.bi_operator import BIParams, k1_apply, k2_apply
from bi_lab.exact import Rat
from bi_lab.poly import Poly


def poly_eval(p: Poly, x0: Rat) -> Rat:
    """Exact Horner evaluation; with x0 = r/s, powers of s keep it in ints."""
    r, s = x0.numerator, x0.denominator
    acc, spow = 0, 1
    for a in reversed(p.nums):
        acc, spow = acc * r + a * spow, spow * s
    return Fraction(acc * s, p.den * spow)


def k3_apply(P: BIParams, p: Poly) -> Poly:
    """K3 = {K1,K2} - omega3 composed on polynomials."""
    anticomm = k1_apply(P, k2_apply(P, p)) + k2_apply(P, k1_apply(P, p))
    return anticomm - p.scale(P.omega3)
