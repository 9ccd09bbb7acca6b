"""Shift-reflection realization of the Bannai-Ito algebra on polynomials.

The defining operator acts on a polynomial p as

    K1 p = F(x) (p(x) - p(-x)) + G(x) (p(-x-1) - p(x)) + h p,

with F(x) = (x-rho1)(x-rho2)/x and G(x) = (x-r1+1/2)(x-r2+1/2)/(x+1/2),
h = rho1 + rho2 - r1 - r2 + 1/2.  Both divisions are always exact:
p(x)-p(-x) is odd (vanishes at 0) and p(-x-1)-p(x) vanishes at -1/2,
so K1 preserves the degree.  The partner generators are the recurrence
operator K2 = 2x + 1/2 and K3 = {K1,K2} - omega3, kept as a composition
so the defining relation stays the single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NonScalarCasimir
from .exact import HALF, ONE, Rat
from .linop import LinOp, anticomm
from .poly import (
    P_ZERO,
    Poly,
    poly_divide_exact,
    poly_reflect,
    poly_shift_reflect,
)
from .report import VerificationReport


@dataclass(frozen=True)
class BIParams:
    """The four realization parameters and their derived scalars."""

    rho1: Rat
    rho2: Rat
    r1: Rat
    r2: Rat

    @staticmethod
    def make(rho1, rho2, r1, r2) -> "BIParams":
        return BIParams(Fraction(rho1), Fraction(rho2), Fraction(r1), Fraction(r2))

    @property
    def h(self) -> Rat:
        return self.rho1 + self.rho2 - self.r1 - self.r2 + HALF

    @property
    def omega1(self) -> Rat:
        return 4 * (self.rho1 * self.rho2 + self.r1 * self.r2)

    @property
    def omega2(self) -> Rat:
        return 2 * (self.rho1**2 + self.rho2**2 - self.r1**2 - self.r2**2)

    @property
    def omega3(self) -> Rat:
        return 4 * (self.rho1 * self.rho2 - self.r1 * self.r2)

    def to_json(self) -> dict:
        from .exact import rat_str

        return {
            "rho1": rat_str(self.rho1),
            "rho2": rat_str(self.rho2),
            "r1": rat_str(self.r1),
            "r2": rat_str(self.r2),
            "h": rat_str(self.h),
            "omega": [rat_str(self.omega1), rat_str(self.omega2), rat_str(self.omega3)],
        }


def k1_apply(P: BIParams, p: Poly) -> Poly:
    if p.is_zero():
        return P_ZERO
    # F-part: (x-rho1)(x-rho2) * [(1-R)p] / x
    fnum = Poly.make([-P.rho1, 1]) * Poly.make([-P.rho2, 1])
    odd_part = p - poly_reflect(p)
    term1 = fnum * poly_divide_exact(odd_part, Fraction(0))
    # G-part: (x-r1+1/2)(x-r2+1/2) * [(T+R - 1)p] / (x+1/2)
    gnum = Poly.make([HALF - P.r1, 1]) * Poly.make([HALF - P.r2, 1])
    diff = poly_shift_reflect(p) - p
    term2 = gnum * poly_divide_exact(diff, -HALF)
    return term1 + term2 + p.scale(P.h)


def k2_apply(P: BIParams, p: Poly) -> Poly:
    return Poly.make([HALF, 2]) * p


def k3_apply(P: BIParams, p: Poly) -> Poly:
    anticomm = k1_apply(P, k2_apply(P, p)) + k2_apply(P, k1_apply(P, p))
    return anticomm - p.scale(P.omega3)


def monomial_matrix(P: BIParams, apply, n: int) -> LinOp:
    """Matrix of apply(P, .) on the monomials 1, x, ..., x^(n-1); image
    components along x^n and above are dropped."""
    return LinOp.make(
        {i: c for i, c in enumerate(apply(P, Poly.monomial(j)).coeffs) if i < n}
        for j in range(n)
    )


def bi_matrices(P: BIParams, maxdeg: int) -> tuple[LinOp, LinOp, LinOp]:
    """K1, K2 and K3 = {K1,K2} - omega3 on the monomials 1, ..., x^(maxdeg+2).

    K1 keeps the degree and K2, K3 raise it by one, so a product of two
    generators takes x^j, and every intermediate image, to degree at most
    j + 2.  Columns 0..maxdeg of such products are therefore exact despite
    the truncation; callers compare only those.
    """
    n = maxdeg + 3
    K1 = monomial_matrix(P, k1_apply, n)
    K2 = monomial_matrix(P, k2_apply, n)
    K3 = anticomm(K1, K2) - LinOp.identity(n, ONE).scale(P.omega3)
    return K1, K2, K3


def check_bi_relations(P: BIParams, maxdeg: int) -> VerificationReport:
    """Verify the three anticommutation relations exactly on monomials.

    Linearity makes the monomial basis sufficient: a relation holding on
    every x^j with j <= maxdeg holds on all polynomials of that degree.
    """
    report = VerificationReport("bannai-ito relations (shift-reflection realization)")
    K1, K2, K3 = bi_matrices(P, maxdeg)
    one = LinOp.identity(maxdeg + 3, ONE)
    residuals = [
        ("{K1,K2} = K3 + omega3", anticomm(K1, K2) - K3 - one.scale(P.omega3)),
        ("{K2,K3} = K1 + omega1", anticomm(K2, K3) - K1 - one.scale(P.omega1)),
        ("{K3,K1} = K2 + omega2", anticomm(K3, K1) - K2 - one.scale(P.omega2)),
    ]
    for j in range(maxdeg + 1):
        for name, residual in residuals:
            report.record(name, j, not residual.cols[j])
    return report


def casimir_scalar(P: BIParams, maxdeg: int = 6) -> Rat:
    """Value by which K1^2 + K2^2 + K3^2 acts, verified degree by degree."""
    expected = 2 * (P.rho1**2 + P.rho2**2 + P.r1**2 + P.r2**2) - Fraction(1, 4)
    K1, K2, K3 = bi_matrices(P, maxdeg)
    residual = K1 @ K1 + K2 @ K2 + K3 @ K3 \
        - LinOp.identity(maxdeg + 3, ONE).scale(expected)
    for j in range(maxdeg + 1):
        if residual.cols[j]:
            raise NonScalarCasimir(
                f"Casimir is not {expected} * identity on x^{j} for {P}"
            )
    return expected
