"""Test-side references on ``Poly``.

The package never evaluates a polynomial at a point; the tests use
``poly_eval`` to check orthogonality sums, overlaps and the reflection
primitives.  The package builds K2 and K3 only as matrices, in
``bi_matrices``; ``k2_apply`` and ``k3_apply`` are the references that the
matrix tests compare against.  ``k1_apply_composed`` is K1 composed from
``Poly`` operations term by term, the reference for the one-pass
``k1_apply``.  ``bi_recurrence_composed`` runs the three-term recurrence
in ``Poly`` arithmetic, the reference for the integer ``bi_recurrence``.
``dunkl_apply`` is the 1-D Dunkl operator from its definition, the
reference for the integer matrix ``sl1.dunkl_matrix``.
"""

from fractions import Fraction

from bi_lab.bi_operator import BIParams, k1_apply
from bi_lab.exact import HALF, Rat
from bi_lab.poly import (P_ONE, P_ZERO, Poly, poly_divide_exact, poly_reflect,
                         poly_shift_reflect)


def poly_eval(p: Poly, x0: Rat) -> Rat:
    """Exact Horner evaluation; with x0 = r/s, powers of s keep it in ints."""
    r, s = x0.numerator, x0.denominator
    acc, spow = 0, 1
    for a in reversed(p.nums):
        acc, spow = acc * r + a * spow, spow * s
    return Fraction(acc * s, p.den * spow)


def k1_apply_composed(P: BIParams, p: Poly) -> Poly:
    """K1 p = F (p(x) - p(-x)) + G (p(-x-1) - p(x)) + h p, one Poly
    operation at a time."""
    fnum = Poly.make([P.rho1 * P.rho2, -P.rho1 - P.rho2, 1])
    gnum = Poly.make([(HALF - P.r1) * (HALF - P.r2), 1 - P.r1 - P.r2, 1])
    term1 = fnum * poly_divide_exact(p - poly_reflect(p), Fraction(0))
    term2 = gnum * poly_divide_exact(poly_shift_reflect(p) - p, -HALF)
    return term1 + term2 + p.scale(P.h)


def k2_apply(P: BIParams, p: Poly) -> Poly:
    """K2 p = (2x + 1/2) p."""
    return Poly.make([HALF, 2]) * p


def k3_apply(P: BIParams, p: Poly) -> Poly:
    """K3 = {K1,K2} - omega3 composed on polynomials."""
    anticomm = k1_apply(P, k2_apply(P, p)) + k2_apply(P, k1_apply(P, p))
    return anticomm - p.scale(P.omega3)


def bi_recurrence_composed(steps: list[tuple[Rat, Rat]]) -> list[Poly]:
    """p_0 = 1, ..., p_m of p_{k+1} = (x - b_k) p_k - u_k p_{k-1}, one Poly
    operation at a time."""
    out, prev = [P_ONE], P_ZERO
    for b, u in steps:
        cur = out[-1]
        out.append(Poly.monomial(1) * cur - cur.scale(b) - prev.scale(u))
        prev = cur
    return out


def dunkl_apply(nu: Rat, p: Poly) -> Poly:
    """D p = p' + nu (p(x) - p(-x)) / x, one Poly operation at a time."""
    derivative = Poly.from_ints([k * a for k, a in enumerate(p.nums)][1:], p.den)
    odd = poly_divide_exact(p - poly_reflect(p), Fraction(0))
    return derivative + odd.scale(Fraction(nu))
