"""Bannai-Ito polynomials: generation and cross-validation.

Three independent routes produce the monic polynomials B_n:

  * the three-term recurrence with parity-split coefficients A_n, C_n:
    ``recurrence_steps`` turns them into steps (b_k, u_k), and
    ``bi_recurrence`` is the one place the recurrence is run, one integer
    pass and one reduction per step,
  * the terminating double-4F3 hypergeometric expression; every B_n <=
    nmax from one pass of integer backward-Horner sums, each 4F3 summed
    once and each B_n reduced once,
  * back-substitution in the upper-triangular matrix of the defining
    shift-reflection operator K1, built by applying ``k1_apply`` to each
    monomial (the matrices that the relations check come from
    ``k1_matrix`` instead); one K1 on 1..x^nmax gives every B_n <= nmax.

All three must agree exactly; the test suite enforces this.  The module
also checks the ladder operators K+/K- and the two-diagonal operator V on
the generator matrices of ``bi_matrices`` (``ladder_check``), and carries
the bi-linear grid x_s and the finite discrete orthogonality weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .bi_operator import BIParams, k1_apply, poly_matrix
from .errors import BILabError
from .exact import HALF, ONE, Rat, ZERO, rat_to_float
from .linop import LinOp, lincomb, record_columns
from .poly import P_ONE, P_ZERO, Poly, int_mul
from .report import VerificationReport


def eigenvalue(P: BIParams, n: int) -> Rat:
    """lambda_n = (-1)^n (n + h), one Fraction of the integers of h."""
    return Fraction((-1) ** n * (n * P.h.denominator + P.h.numerator), P.h.denominator)


@dataclass(frozen=True)
class RecurrenceCoeffs:
    A: Rat
    C: Rat


def recurrence_coeffs(P: BIParams, n: int) -> RecurrenceCoeffs:
    """Parity-split recurrence coefficients, from ``P.recurrence_shifts``.

    x B_n = B_{n+1} + (rho1 - A_n - C_n) B_n + A_{n-1} C_n B_{n-1}.
    Each of A_n and C_n is one Fraction of integers.
    """
    q, s, a_shifts, c_shifts = P.recurrence_shifts
    den_a = (n + 1) * q + s
    if den_a == 0:
        raise BILabError(f"A_{n} denominator vanishes for {P}")
    x, y = a_shifts[n % 2]
    A = Fraction((n * q + x) * (n * q + y), 4 * q * den_a)
    if n == 0:  # C_0 carries an explicit factor n; no denominator needed
        return RecurrenceCoeffs(A, ZERO)
    den_c = n * q + s
    if den_c == 0:
        raise BILabError(f"C_{n} denominator vanishes for {P}")
    x, y = c_shifts[n % 2]
    return RecurrenceCoeffs(A, Fraction(-(n * q + x) * (n * q + y), 4 * q * den_c))


def recurrence_steps(P: BIParams,
                     coeffs: list[RecurrenceCoeffs]) -> list[tuple[Rat, Rat]]:
    """Step coefficients (b_k, u_k), one per entry of coeffs (degrees
    0, 1, ...), of B_{k+1} = (x - b_k) B_k - u_k B_{k-1}:
    b_k = rho1 - A_k - C_k and u_k = A_{k-1} C_k (u_0 = 0), each one
    Fraction of integers."""
    rn, rd = P.rho1.as_integer_ratio()
    steps, (pn, pd) = [], (0, 1)  # (pn, pd): the integers of A_(k-1), A_(-1) = 0
    for c in coeffs:
        (an, ad), (cn, cd) = c.A.as_integer_ratio(), c.C.as_integer_ratio()
        steps.append((Fraction((rn * ad - an * rd) * cd - cn * rd * ad, rd * ad * cd),
                      Fraction(pn * cn, pd * cd)))
        pn, pd = an, ad
    return steps


def bi_recurrence(steps: list[tuple[Rat, Rat]]) -> list[Poly]:
    """Monic p_0 = 1, ..., p_m of p_{k+1} = (x - b_k) p_k - u_k p_{k-1},
    one step (b_k, u_k) per degree k < m; the steps of
    ``recurrence_steps`` give B_0, ..., B_m.

    Each step is one integer pass over the lcm of den(p_k) den(b_k) and
    den(p_{k-1}) den(u_k), reduced once.
    """
    out, prev = [P_ONE], P_ZERO
    for b, u in steps:
        cur = out[-1]
        db, du = cur.den * b.denominator, prev.den * u.denominator
        den = math.lcm(db, du)
        fx = den // cur.den
        fb, fu = b.numerator * (den // db), u.numerator * (den // du)
        nums = [fx * a - fb * c for a, c in zip((0, *cur.nums), (*cur.nums, 0))]
        for i, a in enumerate(prev.nums):
            nums[i] -= fu * a
        out.append(Poly.from_ints(nums, den))
        prev = cur
    return out


def _shifted(b: Rat, j: int) -> int:
    """The numerator of b + j over the denominator of b."""
    return b.numerator + j * b.denominator


def bi_hypergeometric(P: BIParams, nmax: int) -> list[Poly]:
    """Monic B_0, ..., B_nmax from the parity-split double-4F3 expression.

    With u = x + a, v = -x + a (a = 1/2 - r1), H = h + 1/2 and the lower
    parameters b1 = 1 - r1 - r2, b2 = rho1 - r1 + 1/2, b3 = rho2 - r1 + 1/2,

      B_2m   = c_2m   (F_m + m / (b2 b3) u G_(m-1)),
      B_2m+1 = c_2m+1 (F_m - (m + H) / (b2 b3) u G_m),

    where F_m = 4F3(-m, m + H, u, v; b1, b2, b3; 1),
    G_m = 4F3(-m, m + 1 + H, u + 1, v; b1, b2 + 1, b3 + 1; 1) and
    c_n = (-1)^n (b1)_m (b2)_(n-m) (b3)_(n-m) / (m + H)_(n-m), m = n // 2.

    Each F_m and G_m is summed once, by backward Horner on integers: with
    rational parameters every term ratio is an integer polynomial over an
    integer, so a sum is one numerator list over one denominator and each
    B_n is reduced once.  The lower factors of the ratios and the pieces
    of c_n are shared by all degrees.  c_n and t_n / c_n (t_n the factor of
    u G) are unreduced integer pairs and the rising factorials integer
    prefix products, so only the set-up of H, a and b1..b3 uses Fraction.
    Neither the recurrence nor K1 is used.
    """
    H, a = P.h + HALF, HALF - P.r1
    b1, b2, b3 = 1 - P.r1 - P.r2, P.rho1 - P.r1 + HALF, P.rho2 - P.r1 + HALF
    # F_m (m <= nmax/2) divides by (b1)_m (b2)_m (b3)_m, G_m (m < nmax/2)
    # by (b2 + 1)_m (b3 + 1)_m, B_n (n >= 1) by b2 b3 and by (m + H)_(n-m).
    mf, mg = nmax // 2, (nmax - 1) // 2
    for b, top in ((b1, mf), (b2, mg + 1), (b3, mg + 1)):
        for j in range(top):
            if _shifted(b, j) == 0:
                raise BILabError(
                    f"lower Pochhammer ({b})_{j + 1} vanishes at shift {j}"
                )
    for j in range(nmax):
        if _shifted(H, j) == 0:
            raise BILabError(f"c_n denominator factor h + 1/2 + {j} vanishes")

    # Term ratio k of F_m (d = 0) and G_m (d = 1) is
    # (k - 1 - m)(m + d + k - 1 + H) q_k(x) / s_k, with q_k / s_k the part
    # shared by every m: steps[d][k - 1] = (q_k, s_k) on integers.
    an, ad, hn, hd = a.numerator, a.denominator, H.numerator, H.denominator
    lowd = b1.denominator * b2.denominator * b3.denominator
    steps = ([], [])
    for d, top in ((0, mf), (1, mg)):
        for k in range(1, top + 1):
            # ad^2 (u + d + k - 1)(v + k - 1) = (ad x + g + d ad)(-ad x + g)
            g = an + (k - 1) * ad
            q = [(g + d * ad) * g * lowd, -d * ad * ad * lowd, -ad * ad * lowd]
            s = (k * hd * ad * ad * _shifted(b1, k - 1) * _shifted(b2, k - 1 + d)
                 * _shifted(b3, k - 1 + d))
            steps[d].append((q, s))

    def hyp(d: int, m: int) -> tuple[list[int], int]:
        # 1 + r_1 (1 + r_2 (... (1 + r_m))) as numerators over one denominator.
        acc, den = [1], 1
        for k in range(m, 0, -1):
            q, s = steps[d][k - 1]
            c = (k - 1 - m) * (hn + (m + d + k - 1) * hd)
            acc = int_mul([c * x for x in q], acc)
            acc[0] += s * den
            den *= s
        return acc, den

    F = [hyp(0, m) for m in range(mf + 1)]
    G = [hyp(1, m) for m in range(mg + 1)]
    # (b)_j = r[j] / den(b)^j: r holds the prefix products of _shifted(b, i).
    r1, r2, r3, rh = ([*accumulate((_shifted(b, j) for j in range(top)), mul, initial=1)]
                      for b, top in ((b1, mf), (b2, mg + 1), (b3, mg + 1), (H, nmax)))
    d23, n23 = b2.denominator * b3.denominator, b2.numerator * b3.numerator
    out = [P_ONE]
    for n in range(1, nmax + 1):
        m, p = divmod(n, 2)
        # c_n = cn / cd and t_n / c_n = m / (b2 b3) or -(m + H) / (b2 b3) = sn / sd.
        cn = (-1) ** p * r1[m] * r2[n - m] * r3[n - m] * hd ** (n - m) * rh[m]
        cd = b1.denominator ** m * d23 ** (n - m) * rh[n]
        sn, sd = (-_shifted(H, m) * d23, hd * n23) if p else (m * d23, n23)
        # B_n = c_n (f / fd + (t_n / c_n) (ad x + an) g / (ad gd)), one denominator.
        (f, fd), (g, gd) = F[m], G[m - 1 + p]
        ug = int_mul([an, ad], g)
        left, right = sd * ad * gd, sn * fd
        nums = [left * x for x in f] + [0] * (len(ug) - len(f))
        for i, y in enumerate(ug):
            nums[i] += right * y
        out.append(Poly.from_ints([cn * x for x in nums], cd * fd * left))
    return out


def bi_from_operator(P: BIParams, nmax: int) -> list[Poly]:
    """Monic B_0, ..., B_nmax as eigenvectors of one K1 matrix.

    The matrix is built from ``k1_apply`` on each monomial, so this route
    rests on the defining operator, not on the ``k1_matrix`` recurrence of
    the matrices that the relations check.  K1 is upper triangular on
    1, x, ..., x^nmax, so its leading block on 1..x^n is K1 on that basis:
    one K1 gives every B_n <= nmax, each by back-substitution for the
    eigenvalue lambda_n in its block.  The
    back-substitution runs on K1's integer numerators: with K1 = k / d and
    lambda_n = a / b, B_n = w / c solves (b k - a d) w = 0 with w_n = c.
    """
    k1 = poly_matrix([k1_apply(P, Poly.monomial(j)) for j in range(nmax + 1)], nmax + 1)
    k, d = k1.nums, k1.den
    out = []
    for n in range(nmax + 1):
        lam = eigenvalue(P, n)
        a, b = lam.numerator, lam.denominator
        w, c = [0] * n + [1], 1
        for i in range(n - 1, -1, -1):
            t = b * k[i].get(i, 0) - a * d
            if t == 0:
                raise BILabError(
                    f"eigenvalue collision lambda_{i} = lambda_{n} for {P}"
                )
            # w_i / (c t) = -b (sum_j k_ij w_j / c) / t; rescale w_j to c t.
            s = -b * sum(k[j].get(i, 0) * w[j] for j in range(i + 1, n + 1))
            w = [x * t for x in w]
            w[i], c = s, c * t
        out.append(Poly.from_ints(w, c))
    return out


def grid_point(P: BIParams, s: int) -> Rat:
    """Bannai-Ito grid x_s = (-1)^s (s/2 + rho1 + 1/4) - 1/4, one Fraction
    of integers over 4 d with rho1 = n / d."""
    n, d = P.rho1.numerator, P.rho1.denominator
    base = (2 * s + 1) * d + 4 * n
    return Fraction((base if s % 2 == 0 else -base) - d, 4 * d)


def ladder_coeffs(P: BIParams, n: int) -> tuple[Rat, Rat]:
    """(alpha, beta) of the closed forms of K+ and K- on B_n: for even n,
    K+ B_n = alpha B_(n-1) and K- B_n = beta B_(n+1) (the paper's alpha0,
    beta0); for odd n, K+ B_n = alpha B_(n+1) and K- B_n = beta B_(n-1)."""
    rho1, rho2, r1, r2, h = P.rho1, P.rho2, P.r1, P.r2, P.h
    half_n, den = Fraction(n, 2), n + h - HALF
    if n == 0:  # alpha0 carries an explicit factor n; no denominator needed
        return ZERO, 4 * (h + HALF)
    if den == 0:
        raise BILabError(f"ladder denominator n + h - 1/2 = 0 at n={n}")
    if n % 2 == 0:
        return (2 * n * (half_n + rho1 + rho2) * (r1 + r2 - half_n)
                * (Fraction(n - 1, 2) + h) / den, 4 * (n + h + HALF))
    return (-4 * (n + h + HALF), 4 * (rho1 - r1 + half_n) * (rho2 - r1 + half_n)
            * (rho1 - r2 + half_n) * (rho2 - r2 + half_n) / den)


def ladder_operators(P: BIParams,
                     mats: tuple[LinOp, LinOp, LinOp]) -> tuple[LinOp, ...]:
    """K+, K- and V in its first and second form from the triple
    ``bi_matrices(P, nmax)``, formed on columns 0..nmax only (``ladder_check``):
    their right factors and linear terms are cut to them by ``LinOp.head``."""
    K1, K2, K3 = mats
    m = len(K1) - 2
    k1, k2, one = K1.head(m), K2.head(m), LinOp.identity(len(K1)).head(m)
    lo, hi = lincomb((1, k1), (-HALF, one)), lincomb((1, k1), (HALF, one))
    plus = lincomb((1, K2, lo), (1, K3, lo), (-(P.omega2 + P.omega3) / 2, one))
    minus = lincomb((1, K2, hi), (-1, K3, hi), ((P.omega2 - P.omega3) / 2, one))
    # the second form expanded: 2 K2 K1^2 - K2 / 2 - omega3 K1 - omega2 / 2
    return (plus, minus, lincomb((1, plus, hi), (1, minus, lo)),
            lincomb((2, K2, K1 @ k1), (-HALF, k2), (-P.omega3, k1), (-P.omega2 / 2, one)))


def ladder_check(P: BIParams, mats: tuple[LinOp, LinOp, LinOp],
                 polys: list[Poly]) -> VerificationReport:
    """K+-, both forms of V and their closed forms on B_n as identities
    between matrices, checked on each x^j and each B_n, j, n <= nmax.

    ``mats`` is ``bi_matrices(P, nmax)`` (nmax read from its size) and
    ``polys`` holds B_0..B_(nmax+1).  With T = ``poly_matrix`` of
    B_0..B_(nmax+1), whose last column is empty (no product reads column
    nmax + 2), and L+, L-, L_V two-diagonal from
    ``ladder_coeffs`` and lambda_n, the checks are
      K+ = (K2 + K3)(K1 - 1/2) - (omega2 + omega3)/2:  {K1,K+} = K+, K+ T = T L+,
      K- = (K2 - K3)(K1 + 1/2) + (omega2 - omega3)/2:  {K1,K-} = -K-, K- T = T L-,
      V = K+ (K1 + 1/2) + K- (K1 - 1/2) = 2 K2 (K1^2 - 1/4) - omega3 K1
      - omega2/2 and V T = T L_V.
    Each product has at most one factor that raises the degree (K2 or
    K3) and T keeps it, so columns 0..nmax are exact despite the truncation.
    Each residual is formed on those columns only (``LinOp.head``): no
    right factor or linear term, K+- and V included, has another column.
    """
    K1, nmax = mats[0], len(mats[0]) - 3
    plus, minus, v, v2 = ladder_operators(P, mats)
    T = poly_matrix(polys[:nmax + 2], nmax + 3)
    k1, t = K1.head(nmax + 1), T.head(nmax + 1)
    cols = []  # column n of L+, L- and L_V
    for n in range(nmax + 1):
        (alpha, beta), lam = ladder_coeffs(P, n), eigenvalue(P, n)
        # K+ B_n ~ B_u and K- B_n ~ B_d; at n = 0, alpha = 0 drops B_(-1).
        u, d = (n + 1, n - 1) if n % 2 else (n - 1, n + 1)
        cols.append(({u: alpha}, {d: beta},
                     {u: (lam + HALF) * alpha, d: (lam - HALF) * beta}))
    Lp, Lm, Lv = (LinOp.make([*col, {}, {}]) for col in zip(*cols))
    return record_columns("ladder operators and V (shift-reflection realization)", [
        ("{K1,K+} = K+", lincomb((1, K1, plus), (1, plus, k1), (-1, plus))),
        ("{K1,K-} = -K-", lincomb((1, K1, minus), (1, minus, k1), (1, minus))),
        ("K+ B_n closed form", lincomb((1, plus, t), (-1, T, Lp))),
        ("K- B_n closed form", lincomb((1, minus, t), (-1, T, Lm))),
        ("V first form = second form", lincomb((1, v), (-1, v2))),
        ("V B_n two-diagonal", lincomb((1, v, t), (-1, T, Lv))),
    ], nmax + 1)


def _require_finite(coeffs: list[RecurrenceCoeffs]) -> None:
    """The truncation A_N = 0 and the positivity u_k = A_{k-1} C_k > 0 of
    the recurrence coefficients of degrees 0..N."""
    N = len(coeffs) - 1
    if coeffs[N].A != 0:
        raise BILabError(f"truncation A_{N} = {coeffs[N].A} != 0")
    if any(coeffs[k - 1].A.numerator * coeffs[k].C.numerator <= 0  # denominators > 0
           for k in range(1, N + 1)):
        raise BILabError("off-diagonal product A_(k-1) C_k not positive")


def discrete_weights_exact(P: BIParams,
                           coeffs: list[RecurrenceCoeffs]) -> list[tuple[Rat, Rat]]:
    """Exact nodes x_s and weights w_s of the (N+1)-point orthogonality,
    from the recurrence coefficients of degrees 0..N (A_N = 0, u_k > 0).

    The closed-form weight function: w_0 = 1, with a = t + rho1 + 1/2
      w_{2t+1} / w_{2t}   = -(a - r1)(a - r2) / ((a + r1)(a + r2)),
      w_{2t+2} / w_{2t+1} = -(t + 2 rho1 + 1)(t + rho1 + rho2 + 1)
                            / ((t + 1)(t + rho1 - rho2 + 1)),
    divided by their sum.  This is the defining
    w_s = 1 / sum_k B_k(x_s)^2 / (u_1 ... u_k) in O(N) operations: over one
    q, each ratio is an integer quotient num_s / den_s, and w_s times
    den_0 ... den_{N-1} is the integer num_0 ... num_{s-1} den_s ... den_{N-1},
    so each weight is one Fraction.
    """
    _require_finite(coeffs)
    rho1, rho2, r1, r2 = P.rho1, P.rho2, P.r1, P.r2
    a = rho1 + HALF
    # w_{s+1} / w_s = -(t + n1)(t + n2) / ((t + d1)(t + d2)), t = s // 2.
    shifts = ((a - r1, a - r2, a + r1, a + r2),
              (2 * rho1 + 1, rho1 + rho2 + 1, ONE, rho1 - rho2 + 1))
    q = math.lcm(*(x.denominator for four in shifts for x in four))
    shifts = [[x.numerator * (q // x.denominator) for x in four] for four in shifts]
    w, dens = [1], []  # w: prefix products of the numerators, for now
    for s in range(len(coeffs) - 1):
        qt, (n1, n2, d1, d2) = q * (s // 2), shifts[s % 2]
        w.append(-w[-1] * (qt + n1) * (qt + n2))
        dens.append((qt + d1) * (qt + d2))
    suffix = 1
    for s in range(len(dens) - 1, -1, -1):
        suffix *= dens[s]
        w[s] *= suffix
    total = sum(w)
    return [(grid_point(P, s), Fraction(x, total)) for s, x in enumerate(w)]


def discrete_weights(P: BIParams,
                     coeffs: list[RecurrenceCoeffs]) -> list[tuple[float, float]]:
    """Float test oracle for ``discrete_weights_exact`` (kept here because
    perfbench/tracer.py wraps it by name): nodes and weights of the
    (N+1)-point discrete orthogonality, from the recurrence coefficients
    of degrees 0..N.

    Requires the truncation A_N = 0 and positivity u_k = A_{k-1} C_k > 0.
    Nodes come from the symmetrized Jacobi matrix (diagonal b_k, squared
    off-diagonal u_k) and must coincide with the Bannai-Ito grid; weights
    are the squared first components of the normalized eigenvectors
    (total mass 1).  Returned in grid order.
    """
    import numpy as np  # only the float oracles load numpy
    _require_finite(coeffs)
    steps = recurrence_steps(P, coeffs)
    N = len(steps) - 1
    diag = np.array([rat_to_float(b) for b, _ in steps], dtype=float)
    off = np.sqrt(np.array([rat_to_float(u) for _, u in steps[1:]], dtype=float))
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
            raise BILabError(
                f"node {vals[j]} does not match grid point {x}"
            )
        used.add(j)
        out.append((float(vals[j]), float(weights[j])))
    return out
