"""The sl_{-1}(2) algebra: discrete-series modules and the Dunkl realization.

The discrete-series module with sign epsilon and parameter mu > -1/2 acts
on basis states |n> by

    J0 |n> = (n + mu + 1/2) |n>,     R |n> = epsilon (-1)^n |n>,
    J+ |n> = |n+1>,                  J- |n> = rho_n^2 |n-1>,

with rho_n^2 = n + mu (1 - (-1)^n): the unitary module up to a diagonal
change of basis, with rational entries.  On |n> = x^n it is the Dunkl
realization J+ = x, J- = D, D p = p' + mu (p(x) - p(-x)) / x, R p =
epsilon p(-x); ``dunkl_matrix`` and, in several variables, ``dunkl_slice``
read its matrices off the exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

from .errors import BILabError
from .exact import HALF, Rat, rat_str
from .linop import LinOp, lincomb, record_columns
from .report import VerificationReport


def checked_mu(name: str, mu) -> Rat:
    """mu as a Fraction, the one guard of every module parameter mu > -1/2
    (of ``ModuleParams``, ``racah.RacahParams`` and ``dunkl_dirac.DiracParams``):
    raises BILabError naming the value, "<name> = p/q must exceed -1/2"."""
    mu = Fraction(mu)
    if mu <= -HALF:
        raise BILabError(f"{name} = {rat_str(mu)} must exceed -1/2")
    return mu


@dataclass(frozen=True)
class ModuleParams:
    epsilon: int  # +1 or -1
    mu: Rat

    @staticmethod
    def make(epsilon: int, mu) -> "ModuleParams":
        if epsilon not in (1, -1):
            raise BILabError("epsilon must be +1 or -1")
        return ModuleParams(epsilon, checked_mu("mu", mu))


def module_matrices(mu: Rat, n: int) -> tuple[LinOp, LinOp, LinOp, LinOp]:
    """J+ = x (|k> -> |k+1>, dropping |n>), J- = ``dunkl_matrix(mu, n)``,
    J0 = k + mu + 1/2 and (-1)^k on the states |0>, ..., |n-1> of mu."""
    x = LinOp.real(({k + 1: 1} if k + 1 < n else {} for k in range(n)), 1)
    p, q = (mu + HALF).numerator, (mu + HALF).denominator  # J0 = k + p/q
    j0 = LinOp.real(({k: k * q + p} if k * q + p else {} for k in range(n)), q)
    return x, dunkl_matrix(mu, n), j0, LinOp.real(({k: (-1) ** k} for k in range(n)), 1)


def module_bilinear_check(M: ModuleParams, mats: tuple[LinOp, ...]) -> VerificationReport:
    """Exact checks of the defining relations on |n>, n <= nmax, between
    the ``module_matrices`` ``mats`` of M.mu on |0>, ..., |nmax+1>, nmax
    read from their size (R = epsilon (-1)^k; J+ drops |nmax+2>, so columns
    0..nmax are exact).  [J0,R] = 0 and R^2 = 1 hold by construction (J0
    and R act diagonally, R by a sign), so they are not recorded."""
    x, D, J0, parity = mats
    eye, R = LinOp.identity(len(x)), lincomb((M.epsilon, parity))
    xD, Dx = x @ D, D @ x
    Q = lincomb((1, xD, R), (-1, J0, R), (HALF, R))  # the Casimir J+ J- R - J0 R + R/2
    return record_columns(f"sl_{{-1}}(2) module (eps={M.epsilon}, mu={M.mu})", [
        ("{J+,J-} = 2 J0", lincomb((1, xD), (1, Dx), (-2, J0))),
        ("Q = -eps*mu", lincomb((1, Q), (M.epsilon * M.mu, eye))),
        ("[J-,J+] = 1 - 2QR", lincomb((1, Dx), (-1, xD), (-1, eye), (2, Q, R))),
    ], len(x) - 1)


def osp_casimir_check(M: ModuleParams, mats: tuple[LinOp, ...]) -> VerificationReport:
    """The osp(1|2) Casimir equals Q^2 = mu^2 on |n>, n <= nmax.

    C = (E0 - 1/2)^2 - 4 E+ E- - F+ F- with E0 = J0, E± = J±^2/2 and F± = J±,
    on the ``module_matrices`` ``mats`` of M.mu on |0>, ..., |nmax+1>, nmax
    read from their size, as ``module_bilinear_check`` takes them: every J+
    of C follows a J-, so no J+ leaves the basis.
    """
    x, D, J0, _ = mats
    eye = LinOp.identity(len(x))
    e0, xD = lincomb((1, J0), (-HALF, eye)), x @ D
    return record_columns(f"osp(1|2) Casimir (eps={M.epsilon}, mu={M.mu})", [
        ("C_osp = mu^2", lincomb((1, e0, e0), (-1, x @ xD, D), (-1, xD), (-M.mu**2, eye))),
    ], len(x) - 1)


def dunkl_matrix(nu: Rat, n: int) -> LinOp:
    """The Dunkl operator D on the monomials 1, x, ..., x^(n-1), from the
    exponents alone: with nu = p/q, q D x^j = (q j + 2 p [j odd]) x^(j-1),
    an integer over q; a zero entry (nu = -j/2 at odd j) is not stored."""
    p, q = nu.numerator, nu.denominator
    nums = [q * j + 2 * p * (j % 2) for j in range(n)]
    return LinOp.real(({j - 1: a} if a else {} for j, a in enumerate(nums)), q)


def dunkl_scale(mus: Sequence[Rat]) -> tuple[int, ...]:
    """The integer point v = (L, m_1, ..., m_k) of mu_1, ..., mu_k: L =
    lcm(2, den mu_i), the least even integer clearing each mu_i, and m_i =
    L mu_i, so that v[i] = m_i."""
    L = math.lcm(2, *(m.denominator for m in mus))
    return L, *(m.numerator * (L // m.denominator) for m in mus)


def dunkl_slice(L: int, ms: Sequence[int], degree: int) -> tuple[list, Callable, list]:
    """x_a D_b and R_a in k = len(ms) variables, mu_b = m_b / L, on the
    monomials x^e of one total degree: the exponents in lexicographic order,
    hop(a, b), the integer matrix L x_a D_b built on call, and the diagonals
    R_a = (-1)^(e_a), axes from 0.  L x_a D_b x^e = (L e_b + 2 m_b [e_b odd])
    x^(e - u_b + u_a) is L rho^2 of factor b at n = e_b (no zero is stored)."""
    exps = [(*e, degree - sum(e))
            for e in product(range(degree + 1), repeat=len(ms) - 1) if sum(e) <= degree]
    pos = {e: j for j, e in enumerate(exps)}

    def hop(a: int, b: int) -> LinOp:
        cols = []
        for e in exps:
            t = list(e)
            t[b] -= 1
            t[a] += 1
            f = L * e[b] + 2 * ms[b] * (e[b] % 2)
            cols.append({pos[tuple(t)]: f} if f else {})
        return LinOp.real(cols, 1)

    return exps, hop, [LinOp.real(({j: (-1) ** e[a]} for j, e in enumerate(exps)), 1)
                       for a in range(len(ms))]


def dunkl_commutator_check(nu: Rat, maxdeg: int) -> VerificationReport:
    """[D, x] = 1 + 2 nu R on the monomials x^j, j <= maxdeg, exactly: the
    commutator [J-, J+] of the Dunkl realization, whose 1/sqrt(2) ladder
    normalization squares away.  The ``module_matrices`` act on 1, ...,
    x^(maxdeg+1); x drops x^(maxdeg+2), so columns 0..maxdeg are exact."""
    nu, n = Fraction(nu), maxdeg + 2
    x, D, _, R = module_matrices(nu, n)
    residual = lincomb((1, D, x), (-1, x, D), (-1, LinOp.identity(n)), (-2 * nu, R))
    return record_columns(f"Dunkl commutator (nu={nu})",
                          [("[D,x] = 1 + 2 nu R", residual)], maxdeg + 1)
