"""Bannai-Ito polynomials: generation and cross-validation.

Three independent routes produce the monic polynomials B_n:

  * the three-term recurrence with parity-split coefficients A_n, C_n,
  * the terminating double-4F3 hypergeometric expression,
  * back-substitution in the upper-triangular matrix of the defining
    shift-reflection operator.

All three must agree exactly; the test suite enforces this.  The module
also carries the ladder operators K+/K-, the complementary polynomials,
the bi-linear grid x_s and the finite discrete orthogonality weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bi_operator import BIParams, k1_apply, k2_apply, k3_apply, monomial_matrix
from .errors import DegenerateParameters, DegenerateSpectrum, NotFinitelyOrthogonal
from .exact import HALF, ONE, Rat, ZERO, pochhammer, rat_to_float
from .poly import (
    P_ONE,
    P_ZERO,
    Poly,
    pochhammer_poly,
    poly_divide_exact,
    poly_eval,
)


def eigenvalue(P: BIParams, n: int) -> Rat:
    """lambda_n = (-1)^n (n + h)."""
    value = n + P.h
    return value if n % 2 == 0 else -value


@dataclass(frozen=True)
class RecurrenceCoeffs:
    n: int
    A: Rat
    C: Rat


def recurrence_coeffs(P: BIParams, n: int) -> RecurrenceCoeffs:
    """Parity-split recurrence coefficients.

    x B_n = B_{n+1} + (rho1 - A_n - C_n) B_n + A_{n-1} C_n B_{n-1}.
    """
    rho1, rho2, r1, r2 = P.rho1, P.rho2, P.r1, P.r2
    den_a = 4 * (n + rho1 + rho2 - r1 - r2 + 1)
    if den_a == 0:
        raise DegenerateParameters(f"A_{n} denominator vanishes for {P}")
    if n % 2 == 0:
        A = (n + 1 + 2 * rho1 - 2 * r1) * (n + 1 + 2 * rho1 - 2 * r2) / den_a
    else:
        A = (
            (n + 1 + 2 * rho1 + 2 * rho2 - 2 * r1 - 2 * r2)
            * (n + 1 + 2 * rho1 + 2 * rho2)
            / den_a
        )
    if n == 0:
        # The numerator carries an explicit factor n; no denominator needed.
        C = ZERO
    else:
        den_c = 4 * (n + rho1 + rho2 - r1 - r2)
        if den_c == 0:
            raise DegenerateParameters(f"C_{n} denominator vanishes for {P}")
        if n % 2 == 0:
            C = -(n * (n - 2 * r1 - 2 * r2)) / den_c
        else:
            C = -((n + 2 * rho2 - 2 * r2) * (n + 2 * rho2 - 2 * r1)) / den_c
    return RecurrenceCoeffs(n, A, C)


def bi_recurrence(P: BIParams, n: int) -> Poly:
    """Monic B_n from the three-term recurrence."""
    if n == 0:
        return P_ONE
    coeffs = [recurrence_coeffs(P, k) for k in range(n)]
    prev, cur = P_ZERO, P_ONE
    for k in range(n):
        ak, ck = coeffs[k].A, coeffs[k].C
        shift = Poly.make([-(P.rho1 - ak - ck), 1])
        nxt = shift * cur
        if k > 0:
            nxt = nxt - prev.scale(coeffs[k - 1].A * ck)
        prev, cur = cur, nxt
    return cur


def _pochhammer_checked(base: Rat, k: int, label: str) -> Rat:
    for j in range(k):
        if base + j == 0:
            raise DegenerateParameters(
                f"lower Pochhammer ({label})_{k} vanishes at shift {j}"
            )
    return pochhammer(base, k)


def _hyp4f3(a_scalars, a_polys, b_scalars, kmax) -> Poly:
    """Terminating 4F3 at unit argument with two polynomial numerator
    parameters; returns the partial sum k = 0..kmax as a polynomial."""
    out = P_ZERO
    for k in range(kmax + 1):
        num = ONE
        for a in a_scalars:
            num *= pochhammer(a, k)
        den = math.factorial(k)
        for b in b_scalars:
            den *= _pochhammer_checked(b, k, str(b))
        term = P_ONE
        for q in a_polys:
            term = term * pochhammer_poly(q, k)
        out = out + term.scale(num / den)
    return out


def bi_hypergeometric(P: BIParams, n: int) -> Poly:
    """Monic B_n from the parity-split double-4F3 expression."""
    rho1, rho2, r1, r2, h = P.rho1, P.rho2, P.r1, P.r2, P.h
    m, p = divmod(n, 2)
    u = Poly.make([HALF - r1, 1])       # x - r1 + 1/2
    v = Poly.make([HALF - r1, -1])      # -x - r1 + 1/2
    b1 = 1 - r1 - r2
    b2 = rho1 - r1 + HALF
    b3 = rho2 - r1 + HALF

    if p == 0:
        f1 = _hyp4f3([-m, m + HALF + h], [u, v], [b1, b2, b3], m)
        if m == 0:
            second = P_ZERO
        else:
            if b2 == 0 or b3 == 0:
                raise DegenerateParameters("prefactor denominator vanishes")
            f2 = _hyp4f3([1 - m, m + HALF + h], [u + P_ONE, v],
                         [b1, b2 + 1, b3 + 1], m - 1)
            second = (u * f2).scale(Fraction(m) / (b2 * b3))
        body = f1 + second
    else:
        half_n = Fraction(n, 2)
        f1 = _hyp4f3([-m, half_n + h], [u, v], [b1, b2, b3], m)
        if b2 == 0 or b3 == 0:
            raise DegenerateParameters("prefactor denominator vanishes")
        f2 = _hyp4f3([-m, half_n + 1 + h], [u + P_ONE, v],
                     [b1, b2 + 1, b3 + 1], m)
        body = f1 - (u * f2).scale((half_n + h) / (b2 * b3))

    den = _pochhammer_checked(m + h + HALF, m + p, "c_n denominator")
    c_n = _pochhammer_checked(b1, m, "1-r1-r2") * pochhammer(b2, m + p) \
        * pochhammer(b3, m + p) / den
    if p == 1:
        c_n = -c_n
    return body.scale(c_n)


def bi_from_operator(P: BIParams, n: int) -> Poly:
    """Monic B_n by solving the upper-triangular eigenproblem of K1."""
    lam = eigenvalue(P, n)
    cols = monomial_matrix(P, k1_apply, n + 1).cols
    v = [ZERO] * (n + 1)
    v[n] = ONE
    for i in range(n - 1, -1, -1):
        denom = cols[i].get(i, ZERO) - lam
        if denom == 0:
            raise DegenerateSpectrum(
                f"eigenvalue collision lambda_{i} = lambda_{n} for {P}"
            )
        v[i] = -sum((cols[j].get(i, ZERO) * v[j] for j in range(i + 1, n + 1)),
                    ZERO) / denom
    return Poly.make(v)


def grid_point(P: BIParams, s: int) -> Rat:
    """Bannai-Ito grid x_s = (-1)^s (s/2 + rho1 + 1/4) - 1/4."""
    base = Fraction(s, 2) + P.rho1 + Fraction(1, 4)
    return (base if s % 2 == 0 else -base) - Fraction(1, 4)


def ladder_apply(P: BIParams, sign: str, p: Poly) -> Poly:
    """Apply K+ (sign '+') or K- (sign '-') by operator composition."""
    if sign == "+":
        q = k1_apply(P, p) - p.scale(HALF)
        out = k2_apply(P, q) + k3_apply(P, q)
        return out - p.scale((P.omega2 + P.omega3) / 2)
    if sign == "-":
        q = k1_apply(P, p) + p.scale(HALF)
        out = k2_apply(P, q) - k3_apply(P, q)
        return out + p.scale((P.omega2 - P.omega3) / 2)
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def v_apply(P: BIParams, p: Poly, form: str = "first") -> Poly:
    """The two-diagonal operator V in either of its equivalent forms.

    'first':  V = K+ (K1 + 1/2) + K- (K1 - 1/2)
    'second': V = 2 K2 (K1^2 - 1/4) - omega3 K1 - omega2 / 2
    """
    if form == "first":
        plus = ladder_apply(P, "+", k1_apply(P, p) + p.scale(HALF))
        minus = ladder_apply(P, "-", k1_apply(P, p) - p.scale(HALF))
        return plus + minus
    if form == "second":
        q = k1_apply(P, k1_apply(P, p)) - p.scale(Fraction(1, 4))
        return (
            k2_apply(P, q).scale(2)
            - k1_apply(P, p).scale(P.omega3)
            - p.scale(P.omega2 / 2)
        )
    raise ValueError(f"form must be 'first' or 'second', got {form!r}")


@dataclass(frozen=True)
class LadderCoeffs:
    """Closed-form ladder coefficients; parity of n selects which applies."""

    n: int
    alpha0: Rat
    alpha1: Rat
    beta0: Rat
    beta1: Rat


def ladder_coeffs(P: BIParams, n: int) -> LadderCoeffs:
    rho1, rho2, r1, r2, h = P.rho1, P.rho2, P.r1, P.r2, P.h
    half_n = Fraction(n, 2)
    den = n + h - HALF
    if den == 0:
        raise DegenerateParameters(f"ladder denominator n + h - 1/2 = 0 at n={n}")
    alpha0 = (
        2 * n * (half_n + rho1 + rho2) * (r1 + r2 - half_n)
        * (Fraction(n - 1, 2) + h) / den
    )
    alpha1 = -4 * (n + h + HALF)
    beta0 = 4 * (n + h + HALF)
    beta1 = (
        4 * (rho1 - r1 + half_n) * (rho2 - r1 + half_n)
        * (rho1 - r2 + half_n) * (rho2 - r2 + half_n) / den
    )
    return LadderCoeffs(n, alpha0, alpha1, beta0, beta1)


def complementary_bi(P: BIParams, n: int) -> Poly:
    """Complementary polynomial I_n by the Christoffel-type division at rho1."""
    bn = bi_recurrence(P, n)
    bn1 = bi_recurrence(P, n + 1)
    denom = poly_eval(bn, P.rho1)
    if denom == 0:
        raise DegenerateParameters(f"B_{n}(rho1) = 0 for {P}")
    ratio = poly_eval(bn1, P.rho1) / denom
    return poly_divide_exact(bn1 - bn.scale(ratio), P.rho1)


def discrete_weights_exact(P: BIParams, N: int) -> list[tuple[Rat, Rat]]:
    """Exact nodes and weights of the (N+1)-point orthogonality.

    The orthonormalized polynomials b_k = B_k / ||B_k|| with
    ||B_k||^2 = prod_{j<=k} A_{j-1} C_j make the matrix
    sqrt(w_s) b_k(x_s) orthogonal, so w_s = 1 / sum_k b_k(x_s)^2; every
    quantity is rational.  Requires A_N = 0 and A_{k-1} C_k > 0.
    """
    coeffs = [recurrence_coeffs(P, k) for k in range(N + 1)]
    if coeffs[N].A != 0:
        raise NotFinitelyOrthogonal(f"truncation A_{N} = {coeffs[N].A} != 0")
    norm2 = [ONE]
    for k in range(1, N + 1):
        step = coeffs[k - 1].A * coeffs[k].C
        if step <= 0:
            raise NotFinitelyOrthogonal(
                "off-diagonal product A_(k-1) C_k not positive"
            )
        norm2.append(norm2[-1] * step)
    polys = [bi_recurrence(P, k) for k in range(N + 1)]
    out: list[tuple[Rat, Rat]] = []
    for s in range(N + 1):
        x_s = grid_point(P, s)
        inv_w = sum(
            poly_eval(polys[k], x_s) ** 2 / norm2[k] for k in range(N + 1)
        )
        out.append((x_s, 1 / inv_w))
    return out


def discrete_weights(P: BIParams, N: int) -> list[tuple[float, float]]:
    """Nodes and weights of the (N+1)-point discrete orthogonality.

    Requires the truncation A_N = 0 and positivity A_{k-1} C_k > 0.
    Nodes come from the symmetrized Jacobi matrix and must coincide with
    the Bannai-Ito grid; weights are the squared first components of the
    normalized eigenvectors (total mass 1).  Returned in grid order.
    """
    coeffs = [recurrence_coeffs(P, k) for k in range(N + 1)]
    if coeffs[N].A != 0:
        raise NotFinitelyOrthogonal(f"truncation A_{N} = {coeffs[N].A} != 0")
    offsq = [coeffs[k - 1].A * coeffs[k].C for k in range(1, N + 1)]
    if any(w <= 0 for w in offsq):
        raise NotFinitelyOrthogonal("off-diagonal product A_(k-1) C_k not positive")

    diag = np.array(
        [rat_to_float(P.rho1 - c.A - c.C) for c in coeffs], dtype=float
    )
    off = np.sqrt(np.array([rat_to_float(w) for w in offsq], dtype=float))
    J = np.diag(diag)
    if N > 0:
        J += np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(J)
    weights = vecs[0, :] ** 2

    grid = [rat_to_float(grid_point(P, s)) for s in range(N + 1)]
    out: list[tuple[float, float]] = []
    used: set[int] = set()
    for x in grid:
        j = int(np.argmin([abs(vals[i] - x) if i not in used else np.inf
                           for i in range(N + 1)]))
        if abs(vals[j] - x) > 1e-10:
            raise NotFinitelyOrthogonal(
                f"node {vals[j]} does not match grid point {x}"
            )
        used.add(j)
        out.append((float(vals[j]), float(weights[j])))
    return out
