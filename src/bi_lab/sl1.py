"""The sl_{-1}(2) algebra: discrete-series modules and the Dunkl realization.

The discrete-series module with sign epsilon and parameter mu > -1/2 acts
on basis states |n> by

    J0 |n> = (n + mu + 1/2) |n>,     R |n> = epsilon (-1)^n |n>,
    J+ |n> = rho_{n+1} |n+1>,        J- |n> = rho_n |n-1>,

with rho_n^2 = n + mu (1 - (-1)^n).  Single ladder factors carry square
roots, so every identity checked here is recast so only rho^2 products
appear; the checks then run exactly over the rationals.

In the Dunkl realization, D p = p' + nu (p(x) - p(-x)) / x, x and R p =
p(-x) are integer matrices on the monomials, read off the exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BILabError
from .exact import HALF, Rat, ZERO
from .linop import LinOp, comm, record_columns
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


def dunkl_matrix(nu: Rat, n: int) -> LinOp:
    """The Dunkl operator D on the monomials 1, x, ..., x^(n-1), from the
    exponents alone: with nu = p/q, q D x^j = (q j + 2 p [j odd]) x^(j-1),
    an integer over q; a zero entry (nu = -j/2 at odd j) is not stored."""
    p, q = nu.numerator, nu.denominator
    nums = [q * j + 2 * p * (j % 2) for j in range(n)]
    return LinOp.real(({j - 1: a} if a else {} for j, a in enumerate(nums)), q)


def dunkl_commutator_check(nu: Rat, maxdeg: int) -> VerificationReport:
    """[D, x] = 1 + 2 nu R on the monomials x^j, j <= maxdeg, exactly: the
    commutator [J-, J+] of the Dunkl realization, whose 1/sqrt(2) ladder
    normalization squares away.  D, x and R act on 1, ..., x^(maxdeg+1); x
    drops x^(maxdeg+2), so columns 0..maxdeg of [D, x] are exact."""
    nu, n = Fraction(nu), maxdeg + 2
    x = LinOp.real(({j + 1: 1} if j + 1 < n else {} for j in range(n)), 1)
    R = LinOp.real(({j: (-1) ** j} for j in range(n)), 1)
    residual = comm(dunkl_matrix(nu, n), x) - LinOp.identity(n) - R.scale(2 * nu)
    report = VerificationReport(f"Dunkl commutator (nu={nu})")
    record_columns(report, [("[D,x] = 1 + 2 nu R", residual)], maxdeg + 1)
    return report
