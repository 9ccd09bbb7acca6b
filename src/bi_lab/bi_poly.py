"""Bannai-Ito polynomials: generation and cross-validation.

Three independent routes produce the monic polynomials B_n:

  * the three-term recurrence with parity-split coefficients A_n, C_n:
    ``recurrence_steps`` turns them into steps (b_k, u_k), and
    ``bi_recurrence`` is the one place the recurrence is run,
  * the terminating double-4F3 hypergeometric expression; every B_n <=
    nmax from one pass of integer backward-Horner sums, each 4F3 summed
    once and each B_n reduced once,
  * back-substitution in the upper-triangular matrix of the defining
    shift-reflection operator K1; one K1 on 1..x^nmax gives every
    B_n <= nmax.

All three must agree exactly; the test suite enforces this.  The module
also carries the ladder operators K+/K-, the complementary polynomials,
the bi-linear grid x_s and the finite discrete orthogonality weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bi_operator import BIParams, k1_apply, k2_apply, k3_apply, monomial_matrix
from .errors import DegenerateParameters, DegenerateSpectrum, NotFinitelyOrthogonal
from .exact import HALF, ONE, Rat, ZERO, rat_to_float
from .poly import P_ONE, P_ZERO, Poly, int_mul, poly_divide_exact, poly_eval


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


def recurrence_steps(P: BIParams,
                     coeffs: list[RecurrenceCoeffs]) -> list[tuple[Rat, Rat]]:
    """Step coefficients (b_k, u_k), one per entry of coeffs (degrees
    0, 1, ...), of B_{k+1} = (x - b_k) B_k - u_k B_{k-1}:
    b_k = rho1 - A_k - C_k and u_k = A_{k-1} C_k (u_0 = 0, since C_0 = 0)."""
    return [
        (P.rho1 - c.A - c.C, coeffs[k - 1].A * c.C if k else ZERO)
        for k, c in enumerate(coeffs)
    ]


def bi_recurrence(steps: list[tuple[Rat, Rat]]) -> list[Poly]:
    """Monic p_0 = 1, ..., p_m of p_{k+1} = (x - b_k) p_k - u_k p_{k-1},
    one step (b_k, u_k) per degree k < m; the steps of
    ``recurrence_steps`` give B_0, ..., B_m."""
    out, prev = [P_ONE], P_ZERO
    for b, u in steps:
        cur = out[-1]
        out.append(Poly((0, *cur.nums), cur.den) - cur.scale(b) - prev.scale(u))
        prev = cur
    return out


def _shifted(b: Rat, j: int) -> int:
    """The numerator of b + j over the denominator of b."""
    return b.numerator + j * b.denominator


def _rising(base: Rat, k: int) -> list[Rat]:
    """The rising factorials (base)_0, ..., (base)_k."""
    out = [ONE]
    for j in range(k):
        out.append(out[-1] * (base + j))
    return out


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
    of c_n are shared by all degrees.  Neither the recurrence nor K1 is used.
    """
    H, a = P.h + HALF, HALF - P.r1
    b1, b2, b3 = 1 - P.r1 - P.r2, P.rho1 - P.r1 + HALF, P.rho2 - P.r1 + HALF
    # F_m (m <= nmax/2) divides by (b1)_m (b2)_m (b3)_m, G_m (m < nmax/2)
    # by (b2 + 1)_m (b3 + 1)_m, B_n (n >= 1) by b2 b3 and by (m + H)_(n-m).
    mf, mg = nmax // 2, (nmax - 1) // 2
    for b, top in ((b1, mf), (b2, mg + 1), (b3, mg + 1)):
        for j in range(top):
            if _shifted(b, j) == 0:
                raise DegenerateParameters(
                    f"lower Pochhammer ({b})_{j + 1} vanishes at shift {j}"
                )
    for j in range(nmax):
        if _shifted(H, j) == 0:
            raise DegenerateParameters(f"c_n denominator factor h + 1/2 + {j} vanishes")

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
    r1, r2, r3, rh = (_rising(b1, mf), _rising(b2, mg + 1),
                      _rising(b3, mg + 1), _rising(H, nmax))
    out = [P_ONE]
    for n in range(1, nmax + 1):
        m, p = divmod(n, 2)
        c = r1[m] * r2[n - m] * r3[n - m] * rh[m] / rh[n]
        if p:
            c = -c
            t = -(m + H) * c / (b2 * b3)
        else:
            t = m * c / (b2 * b3)
        # B_n = c f / fd + t (ad x + an) g / (ad gd) on one denominator.
        (f, fd), (g, gd) = F[m], G[m - 1 + p]
        ug = int_mul([an, ad], g)
        left, right = c.denominator * fd, t.denominator * ad * gd
        nums = [c.numerator * right * x for x in f] + [0] * (len(ug) - len(f))
        for i, y in enumerate(ug):
            nums[i] += t.numerator * left * y
        out.append(Poly.from_ints(nums, left * right))
    return out


def bi_from_operator(P: BIParams, nmax: int) -> list[Poly]:
    """Monic B_0, ..., B_nmax as eigenvectors of one K1 matrix.

    K1 is upper triangular on 1, x, ..., x^nmax, so its leading block on
    1..x^n is K1 on that basis: one K1 gives every B_n <= nmax, each by
    back-substitution for the eigenvalue lambda_n in its block.  The
    back-substitution runs on K1's integer numerators: with K1 = k / d and
    lambda_n = a / b, B_n = w / c solves (b k - a d) w = 0 with w_n = c.
    """
    k1 = monomial_matrix(P, k1_apply, nmax + 1)
    k, d = k1.re, k1.den
    out = []
    for n in range(nmax + 1):
        lam = eigenvalue(P, n)
        a, b = lam.numerator, lam.denominator
        w, c = [0] * n + [1], 1
        for i in range(n - 1, -1, -1):
            t = b * k[i].get(i, 0) - a * d
            if t == 0:
                raise DegenerateSpectrum(
                    f"eigenvalue collision lambda_{i} = lambda_{n} for {P}"
                )
            # w_i / (c t) = -b (sum_j k_ij w_j / c) / t; rescale w_j to c t.
            s = -b * sum(k[j].get(i, 0) * w[j] for j in range(i + 1, n + 1))
            w = [x * t for x in w]
            w[i], c = s, c * t
        out.append(Poly.from_ints(w, c))
    return out


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
        k1p = k1_apply(P, p)
        plus = ladder_apply(P, "+", k1p + p.scale(HALF))
        minus = ladder_apply(P, "-", k1p - p.scale(HALF))
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
    coeffs = [recurrence_coeffs(P, k) for k in range(n + 1)]
    bn, bn1 = bi_recurrence(recurrence_steps(P, coeffs))[n:]
    denom = poly_eval(bn, P.rho1)
    if denom == 0:
        raise DegenerateParameters(f"B_{n}(rho1) = 0 for {P}")
    ratio = poly_eval(bn1, P.rho1) / denom
    return poly_divide_exact(bn1 - bn.scale(ratio), P.rho1)


def _finite_steps(P: BIParams,
                  coeffs: list[RecurrenceCoeffs]) -> list[tuple[Rat, Rat]]:
    """The steps (b_k, u_k) of the recurrence coefficients of degrees
    0..N, once the truncation A_N = 0 and the positivity u_k > 0 hold."""
    N = len(coeffs) - 1
    if coeffs[N].A != 0:
        raise NotFinitelyOrthogonal(f"truncation A_{N} = {coeffs[N].A} != 0")
    steps = recurrence_steps(P, coeffs)
    if any(u <= 0 for _, u in steps[1:]):
        raise NotFinitelyOrthogonal("off-diagonal product A_(k-1) C_k not positive")
    return steps


def discrete_weights_exact(P: BIParams,
                           coeffs: list[RecurrenceCoeffs]) -> list[tuple[Rat, Rat]]:
    """Exact nodes x_s and weights w_s of the (N+1)-point orthogonality,
    from the recurrence coefficients of degrees 0..N (A_N = 0, u_k > 0).

    The closed-form weight function: w_0 = 1, with a = t + rho1 + 1/2
      w_{2t+1} / w_{2t}   = -(a - r1)(a - r2) / ((a + r1)(a + r2)),
      w_{2t+2} / w_{2t+1} = -(t + 2 rho1 + 1)(t + rho1 + rho2 + 1)
                            / ((t + 1)(t + rho1 - rho2 + 1)),
    divided by their sum.  This is the defining
    w_s = 1 / sum_k B_k(x_s)^2 / (u_1 ... u_k) in O(N) operations.
    """
    _finite_steps(P, coeffs)
    rho1, rho2, r1, r2 = P.rho1, P.rho2, P.r1, P.r2
    a = rho1 + HALF
    # w_{s+1} / w_s = -(t + n1)(t + n2) / ((t + d1)(t + d2)), t = s // 2.
    shifts = ((a - r1, a - r2, a + r1, a + r2),
              (2 * rho1 + 1, rho1 + rho2 + 1, ONE, rho1 - rho2 + 1))
    w = [ONE]
    for s in range(len(coeffs) - 1):
        t, (n1, n2, d1, d2) = s // 2, shifts[s % 2]
        w.append(-w[-1] * (t + n1) * (t + n2) / ((t + d1) * (t + d2)))
    total = sum(w)
    return [(grid_point(P, s), x / total) for s, x in enumerate(w)]


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
    steps = _finite_steps(P, coeffs)
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
            raise NotFinitelyOrthogonal(
                f"node {vals[j]} does not match grid point {x}"
            )
        used.add(j)
        out.append((float(vals[j]), float(weights[j])))
    return out
