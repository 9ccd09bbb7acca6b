"""Shift-reflection realization of the Bannai-Ito algebra on polynomials.

The defining operator acts on a polynomial p as

    K1 p = F(x) (p(x) - p(-x)) + G(x) (p(-x-1) - p(x)) + h p,

with F(x) = (x-rho1)(x-rho2)/x and G(x) = (x-r1+1/2)(x-r2+1/2)/(x+1/2),
h = rho1 + rho2 - r1 - r2 + 1/2.  Both divisions are always exact:
p(x)-p(-x) is odd (vanishes at 0) and p(-x-1)-p(x) vanishes at -1/2,
so K1 preserves the degree.  ``k1_apply`` is K1 on polynomials, the
operator that ``bi_poly.bi_from_operator`` applies to each monomial;
``k1_matrix`` writes K1's columns for ``bi_matrices`` from an integer
recurrence, with no division.  The partner generators are the recurrence
operator K2 = 2x + 1/2, written from its two diagonals, and K3 = {K1,K2} -
omega3, which exists only as that composition of the matrices of
``bi_matrices``: the defining relation is the single source of truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest

from .exact import HALF, Rat, rat_str
from .linop import LinOp, lincomb, record_columns
from .poly import Poly, int_mul, poly_divide_exact, poly_reflect, poly_shift_reflect
from .report import VerificationReport


@dataclass(frozen=True)
class BIParams:
    """The four realization parameters and their derived scalars."""

    rho1: Rat
    rho2: Rat
    r1: Rat
    r2: Rat

    @cached_property  # computed once per tuple, read by eigenvalue for every n
    def h(self) -> Rat:
        return self.rho1 + self.rho2 - self.r1 - self.r2 + HALF

    @cached_property  # each omega computed once per tuple, read by every check of it
    def omega1(self) -> Rat:
        return 4 * (self.rho1 * self.rho2 + self.r1 * self.r2)

    @cached_property
    def omega2(self) -> Rat:
        return 2 * (self.rho1**2 + self.rho2**2 - self.r1**2 - self.r2**2)

    @cached_property
    def omega3(self) -> Rat:
        return 4 * (self.rho1 * self.rho2 - self.r1 * self.r2)

    @cached_property  # computed once per tuple, read by k1_apply and k1_matrix
    def k1_numerators(self) -> tuple[list[int], list[int], int, int]:
        """(f, g, L h, L): F's numerator (x - rho1)(x - rho2), G's
        (x - r1 + 1/2)(x - r2 + 1/2) and h as integers over their lcm L."""
        a, b = HALF - self.r1, HALF - self.r2
        cs = (self.rho1 * self.rho2, -self.rho1 - self.rho2, a * b, a + b, self.h)
        L = math.lcm(*(c.denominator for c in cs))
        f0, f1, g0, g1, h = (c.numerator * (L // c.denominator) for c in cs)
        return [f0, f1, L], [g0, g1, L], h, L

    @cached_property  # computed once per tuple, read by every recurrence_coeffs
    def recurrence_shifts(self) -> tuple:
        """The n-independent parts of the recurrence coefficients A_n and
        C_n of ``bi_poly.recurrence_coeffs`` as integers over one q > 0.

        With s = rho1 + rho2 - r1 - r2 and, for even and odd n, the shifts
        (x, y) of A_n = (n + x)(n + y) / (4(n + 1 + s)) and
        C_n = -(n + x)(n + y) / (4(n + s)), returns (q, q s, A's and C's
        (q x, q y) by parity); q is the lcm of the denominators of the four
        parameters, so every numerator is an integer.
        """
        ps = (self.rho1, self.rho2, self.r1, self.r2)
        q = math.lcm(*(v.denominator for v in ps))
        a, b, c, d = (2 * v.numerator * (q // v.denominator) for v in ps)  # 2 q rho1, ...
        s = (a + b - c - d) // 2
        return (q, s, ((q + a - c, q + a - d), (q + 2 * s, q + a + b)),
                ((0, -c - d), (b - d, b - c)))

    def __str__(self) -> str:
        """The tuple as p/q, as guard messages print it."""
        return ("BIParams(rho1={}, rho2={}, r1={}, r2={})"
                .format(*map(rat_str, (self.rho1, self.rho2, self.r1, self.r2))))

    def to_json(self) -> dict:
        return {
            "rho1": rat_str(self.rho1),
            "rho2": rat_str(self.rho2),
            "r1": rat_str(self.r1),
            "r2": rat_str(self.r2),
            "h": rat_str(self.h),
            "omega": [rat_str(self.omega1), rat_str(self.omega2), rat_str(self.omega3)],
        }


def k1_apply(P: BIParams, p: Poly) -> Poly:
    """K1 p in one integer pass, reduced once: (p(x) - p(-x)) / x is the
    numerators of p - p(-x) shifted down one degree, and p(-x-1) - p(x) is
    divided by x + 1/2 in ``poly_divide_exact`` (its one other reduction)."""
    f, g, h, L = P.k1_numerators
    odd = [a - b for a, b in zip(p.nums[1:], poly_reflect(p).nums[1:])]
    diff = [a - b for a, b in zip(poly_shift_reflect(p).nums, p.nums)]
    while diff and not diff[-1]:
        diff.pop()
    quot = poly_divide_exact(Poly(tuple(diff), p.den), -HALF)
    den = math.lcm(p.den, quot.den)
    fp, fq = den // p.den, den // quot.den
    terms = zip_longest(int_mul(f, odd), p.nums, int_mul(g, quot.nums), fillvalue=0)
    return Poly.from_ints([fp * (a + h * b) + fq * c for a, b, c in terms], L * den)


def monomial_matrix(P: BIParams, apply, n: int) -> LinOp:
    """Matrix of apply(P, .) on the monomials 1, x, ..., x^(n-1); image
    components along x^n and above are dropped.  Built from the images'
    integer numerators over the lcm of their denominators."""
    images = [apply(P, Poly.monomial(j)) for j in range(n)]
    den = math.lcm(*(p.den for p in images))
    return LinOp.real(
        ({i: a * (den // p.den) for i, a in enumerate(p.nums[:n]) if a}
         for p in images), den)


def k1_matrix(P: BIParams, n: int) -> LinOp:
    """Matrix of K1 on the monomials 1, x, ..., x^(n-1) in O(n^2) integer
    operations and one reduction, equal to ``monomial_matrix(P, k1_apply, n)``.

    With (f, g, L h, L) = ``P.k1_numerators``, column j is
    L K1 x^j = f O_j + g Q_j + L h x^j over L, where
    O_j = (x^j - (-x)^j) / x is 2x^(j-1) for odd j and 0 for even j, and
    Q_j = ((-x-1)^j - x^j) / (x + 1/2) = -(x+1) Q_(j-1) - 2x^(j-1) from
    Q_0 = 0 has integer coefficients; the x^(j+1) terms cancel and are not
    formed.
    """
    (f0, f1, _), (g0, g1, g2), h, L = P.k1_numerators
    cols, q = [], []  # q: the numerators of Q_j, degrees 0..j-1
    for j in range(n):
        col = [g0 * a + g1 * b + g2 * c
               for a, b, c in zip(q + [0], [0] + q, [0, 0] + q)]
        if j % 2:
            col[j - 1] += 2 * f0
            col[j] += 2 * f1
        col[j] += h
        cols.append({i: a for i, a in enumerate(col) if a})
        q = [-a - b for a, b in zip(q + [0], [0] + q)]
        q[j] -= 2
    return LinOp.real(cols, L)


def bi_matrices(P: BIParams, maxdeg: int) -> tuple[LinOp, LinOp, LinOp]:
    """K1, K2 and K3 = {K1,K2} - omega3 on the monomials 1, ..., x^(maxdeg+2).

    K1's columns come from the integer recurrence of ``k1_matrix``, not
    from ``k1_apply``.  K1 keeps the degree and K2, K3 raise it by one, so a product of two
    generators takes x^j, and every intermediate image, to degree at most
    j + 2.  Columns 0..maxdeg of such products are therefore exact despite
    the truncation; callers form only those, with ``LinOp.head``.
    """
    n = maxdeg + 3
    K1 = k1_matrix(P, n)
    # K2 = 2x + 1/2 takes x^j to (x^j + 4 x^(j+1)) / 2; x^n is dropped.
    K2 = LinOp.real(({j: 1, j + 1: 4} if j + 1 < n else {j: 1} for j in range(n)), 2)
    K3 = lincomb((1, K1, K2), (1, K2, K1), (-P.omega3, LinOp.identity(n)))
    return K1, K2, K3


def check_bi_relations(P: BIParams,
                       mats: tuple[LinOp, LinOp, LinOp]) -> VerificationReport:
    """Verify the anticommutation relations exactly on monomials.

    ``mats`` is the triple ``bi_matrices(P, maxdeg)``; maxdeg is read from
    its size.  The relation {K1,K2} = K3 + omega3 is the definition of K3
    there, so only the other two are checked.  Linearity makes the monomial
    basis sufficient: a relation holding on every x^j with j <= maxdeg
    holds on all polynomials of that degree.  Each residual is formed on
    those columns only, its right factors and linear terms cut by ``LinOp.head``.
    """
    report = VerificationReport("bannai-ito relations (shift-reflection realization)")
    m = len(mats[0]) - 2  # columns 0..maxdeg
    (K1, K2, K3), (k1, k2, k3) = mats, (K.head(m) for K in mats)
    one = LinOp.identity(len(K1)).head(m)
    record_columns(report, [
        ("{K2,K3} = K1 + omega1",
         lincomb((1, K2, k3), (1, K3, k2), (-1, k1), (-P.omega1, one))),
        ("{K3,K1} = K2 + omega2",
         lincomb((1, K3, k1), (1, K1, k3), (-1, k2), (-P.omega2, one))),
    ], m)
    return report


def casimir_scalar(P: BIParams,
                   mats: tuple[LinOp, LinOp, LinOp]) -> VerificationReport:
    """K1^2 + K2^2 + K3^2 acts as 2(rho1^2 + rho2^2 + r1^2 + r2^2) - 1/4,
    checked on each x^j, j <= maxdeg, of the triple ``bi_matrices(P,
    maxdeg)`` (maxdeg read from its size) and formed on those columns only;
    every entry names the value."""
    report = VerificationReport("bannai-ito casimir (shift-reflection realization)")
    expected = 2 * (P.rho1**2 + P.rho2**2 + P.r1**2 + P.r2**2) - Fraction(1, 4)
    m = len(mats[0]) - 2  # columns 0..maxdeg
    residual = lincomb(*((1, K, K.head(m)) for K in mats),
                       (-expected, LinOp.identity(len(mats[0])).head(m)))
    name = f"K1^2 + K2^2 + K3^2 = {rat_str(expected)}"
    record_columns(report, [(name, residual)], m)
    return report
