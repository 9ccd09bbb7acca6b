"""The sl_{-1}(2) algebra: discrete-series modules and the Dunkl realization.

The discrete-series module with sign epsilon and parameter mu > -1/2 acts
on basis states |n> by

    J0 |n> = (n + mu + 1/2) |n>,     R |n> = epsilon (-1)^n |n>,
    J+ |n> = rho_{n+1} |n+1>,        J- |n> = rho_n |n-1>,

with rho_n^2 = n + mu (1 - (-1)^n).  Single ladder factors carry square
roots, so every identity checked here is recast so only rho^2 products
appear; the checks then run exactly over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BILabError
from .exact import HALF, Rat, ZERO
from .poly import Poly, poly_derivative, poly_divide_exact, poly_reflect
from .report import VerificationReport


@dataclass(frozen=True)
class ModuleParams:
    epsilon: int  # +1 or -1
    mu: Rat

    @staticmethod
    def make(epsilon: int, mu) -> "ModuleParams":
        if epsilon not in (1, -1):
            raise BILabError("epsilon must be +1 or -1")
        mu = Fraction(mu)
        if mu <= Fraction(-1, 2):
            raise BILabError(f"mu must exceed -1/2, got {mu}")
        return ModuleParams(epsilon, mu)


def rho_squared(M: ModuleParams, n: int) -> Rat:
    """rho_n^2 = n + mu (1 - (-1)^n); zero at n = 0."""
    if n <= 0:
        return ZERO
    return n + M.mu * (1 - (-1) ** n)


def module_bilinear_check(M: ModuleParams, nmax: int) -> VerificationReport:
    """Exact checks of the defining relations on |n>, n <= nmax.

    Ladder products are evaluated through rho^2: J+J- |n> = rho_n^2 |n>
    and J-J+ |n> = rho_{n+1}^2 |n>, so every quantity is rational.
    [J0,R] = 0 and R^2 = 1 hold by construction (J0 and R act diagonally,
    R by a sign), so they are not recorded.
    """
    report = VerificationReport(f"sl_{{-1}}(2) module (eps={M.epsilon}, mu={M.mu})")
    for n in range(nmax + 1):
        j0 = n + M.mu + HALF
        r = M.epsilon * (-1) ** n
        jp_jm = rho_squared(M, n)
        jm_jp = rho_squared(M, n + 1)
        report.record("{J+,J-} = 2 J0", n, jp_jm + jm_jp == 2 * j0)
        # Casimir Q = J+ J- R - J0 R + R/2 acting on |n>.
        q = (jp_jm - j0 + HALF) * r
        report.record("Q = -eps*mu", n, q == -M.epsilon * M.mu)
        # [J-, J+] = 1 - 2QR, evaluated on |n> from both sides.
        lhs = jm_jp - jp_jm
        rhs = 1 - 2 * q * r
        report.record("[J-,J+] = 1 - 2QR", n, lhs == rhs)
    return report


def osp_casimir_check(M: ModuleParams, nmax: int) -> VerificationReport:
    """The osp(1|2) Casimir equals Q^2 = mu^2 on every basis state.

    C = (E0 - 1/2)^2 - 4 E+ E- - F+ F- with E0 = J0, E± = J±^2/2 and
    F± = J±.  All ladder factors pair up, so the value is rational.
    """
    report = VerificationReport(f"osp(1|2) Casimir (eps={M.epsilon}, mu={M.mu})")
    for n in range(nmax + 1):
        e0 = n + M.mu + HALF
        four_epem = rho_squared(M, n) * rho_squared(M, n - 1)  # J+^2 J-^2 on |n>
        fpfm = rho_squared(M, n)
        value = (e0 - HALF) ** 2 - four_epem - fpfm
        report.record("C_osp = mu^2", n, value == M.mu**2)
    return report


def dunkl_derivative(nu: Rat, p: Poly) -> Poly:
    """One-dimensional Dunkl operator p -> p' + nu (p(x) - p(-x)) / x."""
    odd_part = p - poly_reflect(p)
    return poly_derivative(p) + poly_divide_exact(odd_part, ZERO).scale(Fraction(nu))


def dunkl_commutator_check(nu: Rat, maxdeg: int) -> VerificationReport:
    """[D, x] = 1 + 2 nu R on monomials up to maxdeg, exactly.

    This is the commutator [J-, J+] of the Dunkl realization: the 1/sqrt(2)
    normalization of the ladder operators squares away.
    """
    nu = Fraction(nu)
    report = VerificationReport(f"Dunkl commutator (nu={nu})")
    x = Poly.monomial(1)
    for j in range(maxdeg + 1):
        mono = Poly.monomial(j)
        lhs = dunkl_derivative(nu, x * mono) - x * dunkl_derivative(nu, mono)
        rhs = mono + poly_reflect(mono).scale(2 * nu)
        report.record("[D,x] = 1 + 2 nu R", j, lhs == rhs)
    return report
