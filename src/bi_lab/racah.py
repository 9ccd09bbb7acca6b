"""The Racah problem for sl_{-1}(2) and the Bannai-Ito algebra.

Two exact constructions are checked over the rationals:

  * the (N+1)x(N+1) tridiagonal representation built from the
    closed-form coefficients B_k, D_k (K2 = {K1,K3} - omega2 is written on
    the band), with the anticommutation relations and the Casimir value
    checked on integer matrices by ``representation_check``, and
  * the intermediate Casimir operators Q12, Q23 and the total Casimir Q4
    on one degree slice of the threefold tensor product of
    discrete-series modules (``tensor_slice``): their spectra, the
    commutation with Q4, the Bannai-Ito relations on every eigenspace of
    Q4 (``tensor_oracle``) and the central-extension relations on the
    whole slice (``central_extension_check``).

The spectrum of K1 and the overlaps between the two eigenbases are exact
and read off the built representation by one integer continuant that
solves K1 v = lambda_s v row by row, each row cleared by its own
denominator (``_continuant``): its last row vanishes at each lambda_s
(``k1_spectrum_check``, which also matches its steps with those of the
Bannai-Ito recurrence), and its rows are the eigenvectors, the
Bannai-Ito polynomials on the grid (``racah_overlaps``).  One build
serves the relations, the spectrum and the overlaps, and one continuant
run per build (``TridiagRep.continuant``) the last two.

The build stores each K_i as its columns, dicts {row: Fraction} that
hold only the band (the shape ``LinOp.make`` takes); the relation check
multiplies them as integer ``LinOp``s.  The off-diagonal data of the
representation is kept as the rational product B_{k-1} D_k.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .bi_operator import BIParams
from .errors import BILabError
from .exact import HALF, ONE, Rat, ZERO, rat_str
from .linop import LinOp, anticomm
from .report import VerificationReport
from .sl1 import ModuleParams, rho_squared

BandColumns = tuple[dict[int, Rat], ...]


def mat_mul(a: LinOp, b: LinOp) -> LinOp:
    """a @ b, every product of ``representation_check`` (kept as a
    function because perfbench/tracer.py wraps it by name and its
    self-test requires the ``tables`` workload to call it)."""
    return a @ b


# ---------------------------------------------------------------------------
# parameters and coefficients

@dataclass(frozen=True)
class RacahParams:
    """Module parameters mu1, mu2, mu3 and truncation order N.

    The representation closes at dimension N+1 through the derived value
    mu4 = mu1 + mu2 + mu3 + N + 1; all epsilon signs are fixed to +1.
    """

    mu1: Rat
    mu2: Rat
    mu3: Rat
    N: int

    @staticmethod
    def make(mu1, mu2, mu3, N: int) -> "RacahParams":
        mus = tuple(Fraction(m) for m in (mu1, mu2, mu3))
        if any(m <= Fraction(-1, 2) for m in mus):
            raise BILabError("each mu_i must exceed -1/2")
        if N < 0:
            raise BILabError("N must be non-negative")
        return RacahParams(*mus, N)

    @property
    def mu4(self) -> Rat:
        return self.mu1 + self.mu2 + self.mu3 + self.N + 1

    @property
    def mu(self) -> Rat:
        # mu = eps4 * mu4 = -q4 with eps4 = (-1)^N: the sign is forced by
        # the truncation B_N = 0, whose vanishing factor sits in the even
        # branch (mu = +mu4) or the odd branch (mu = -mu4) of B_k.
        return self.mu4 if self.N % 2 == 0 else -self.mu4

    @cached_property  # computed once for the build and for its check
    def omegas(self) -> tuple[Rat, Rat, Rat]:
        m1, m2, m3, m = self.mu1, self.mu2, self.mu3, self.mu
        return (
            2 * (m1 * m + m2 * m3),
            2 * (m1 * m3 + m2 * m),
            2 * (m1 * m2 + m3 * m),
        )

    @cached_property  # computed once for every bk_dk of this tuple
    def bk_dk_shifts(self) -> tuple:
        """The k-independent parts of B_k and D_k as integers over one q > 0.

        With the denominators 2(k + 1 + mu1 + mu2) and 2(k + mu1 + mu2),
        B_k = (k + x)(k + y) / (2(k + 1 + mu1 + mu2)) and
        D_k = -(k + x)(k + y) / (2(k + mu1 + mu2)) for shifts (x, y) that
        depend on the parity of k.  Returns (q, q (mu1 + mu2), B's and D's
        (q x, q y) by parity); q is the lcm of the denominators of mu1,
        mu2 and mu3, so every numerator is an integer.
        """
        q = math.lcm(*(m.denominator for m in (self.mu1, self.mu2, self.mu3)))
        m1, m2, m3, mu = (m.numerator * (q // m.denominator)
                          for m in (self.mu1, self.mu2, self.mu3, self.mu))
        s = m1 + m2 + m3
        return (q, m1 + m2,
                ((q + 2 * m2, q + s - mu), (q + 2 * m1 + 2 * m2, q + s + mu)),
                ((0, m1 + m2 - m3 - mu), (2 * m1, m1 + m2 - m3 + mu)))

    def identifications(self) -> BIParams:
        """BI parameters (rho1, rho2, r1, r2) of the overlap polynomials."""
        return BIParams(
            (self.mu2 + self.mu3) / 2,
            (self.mu1 + self.mu) / 2,
            (self.mu3 - self.mu2) / 2,
            (self.mu - self.mu1) / 2,
        )

    def casimir_value(self) -> Rat:
        return (
            self.mu1**2 + self.mu2**2 + self.mu3**2 + self.mu4**2
            - Fraction(1, 4)
        )


def spectrum_value(s: int, c: Rat) -> Rat:
    """(-1)^s (s + c + 1/2): the K1 spectrum for c = mu2 + mu3 and the K3
    diagonal for c = mu1 + mu2."""
    value = s + c + HALF
    return value if s % 2 == 0 else -value


def bk_dk(RP: RacahParams, k: int) -> tuple[Rat, Rat]:
    """Tridiagonal coefficients of K1 on the K3 eigenbasis.

    Both denominators 2(k + mu1 + mu2 + 1) and 2(k + mu1 + mu2) read off
    the same parity-split display; D_0 = 0 is taken directly (the
    numerator carries an explicit factor k).  Each is one Fraction of the
    integers of ``RacahParams.bk_dk_shifts``.
    """
    q, z, b_shifts, d_shifts = RP.bk_dk_shifts
    den_b = (k + 1) * q + z
    if den_b == 0:
        raise BILabError(f"B_{k} denominator vanishes")
    x, y = b_shifts[k % 2]
    B = Fraction((k * q + x) * (k * q + y), 2 * q * den_b)
    if k == 0:
        return B, ZERO
    den_d = k * q + z
    if den_d == 0:
        raise BILabError(f"D_{k} denominator vanishes")
    x, y = d_shifts[k % 2]
    return B, Fraction(-(k * q + x) * (k * q + y), 2 * q * den_d)


@dataclass(frozen=True)
class TridiagRep:
    """Exact matrices of the Racah realization on the K3 eigenbasis.

    Each K_i is stored as its columns: ``K[j]`` maps row i to entry (i, j)
    for the |i - j| <= 1 of the band only, so ``K[k][k]`` is the diagonal
    (stored even when zero) and K3 has one entry per column.
    """

    params: RacahParams
    K1: BandColumns
    K2: BandColumns
    K3: BandColumns
    B: tuple[Rat, ...]
    D: tuple[Rat, ...]
    casimir: Rat

    @property
    def q4(self) -> Rat:
        return -self.params.mu

    @cached_property  # one run serves the spectrum check and the overlaps
    def continuant(self) -> tuple[list[list[int]], list[int]]:
        return _continuant(self)

    @property
    def offdiag_products(self) -> tuple[Rat, ...]:
        """U_k^2 = B_{k-1} D_k for k = 1..N (kept rational)."""
        return tuple(self.B[k - 1] * self.D[k] for k in range(1, self.params.N + 1))

    def to_json(self) -> dict:
        return {
            "N": self.params.N,
            "q4": rat_str(self.q4),
            "casimir": rat_str(self.casimir),
            **{name: [[rat_str(col[i]) if i in col else "0/1" for col in K]
                      for i in range(len(K))]
               for name, K in (("K1", self.K1), ("K2", self.K2), ("K3", self.K3))},
        }


def build_tridiag_rep(RP: RacahParams) -> TridiagRep:
    """Exact representation; raises only when a denominator vanishes or an
    off-diagonal product is not positive.  B_N = 0 holds identically: mu =
    (-1)^N mu4 zeroes the factor of B_N's numerator that carries mu.  The
    relations are checked by ``representation_check``."""
    n = RP.N + 1
    B, D = zip(*(bk_dk(RP, k) for k in range(n)))
    for k in range(1, n):
        if B[k - 1] * D[k] <= 0:
            raise BILabError(f"B_{k-1} D_{k} = {B[k-1] * D[k]} not positive")

    # K3 is diagonal, so K2 = {K1,K3} - omega2 is K1_ij (K3_ii + K3_jj) on
    # the band of K1, less omega2 on the diagonal; K3_(k-1)(k-1) + K3_kk is
    # (-1)^k, so off the diagonal K2 is K1 up to sign.
    K1, K2, K3 = ([{} for _ in range(n)] for _ in range(3))
    a, c, om2 = RP.mu2 + RP.mu3 + HALF, RP.mu1 + RP.mu2, RP.omegas[1]
    for k in range(n):
        K1[k][k] = a - B[k] - D[k]
        K3[k][k] = spectrum_value(k, c)
        K2[k][k] = 2 * K1[k][k] * K3[k][k] - om2
        if k:  # B_(k-1) in row k of column k - 1, D_k in row k - 1 of column k
            K1[k - 1][k], K1[k][k - 1] = B[k - 1], D[k]
            K2[k - 1][k], K2[k][k - 1] = ((B[k - 1], D[k]) if k % 2 == 0
                                          else (-B[k - 1], -D[k]))
    return TridiagRep(RP, tuple(K1), tuple(K2), tuple(K3), B, D, RP.casimir_value())


def representation_check(rep: TridiagRep) -> VerificationReport:
    """{K1,K2} = K3 + omega3, {K2,K3} = K1 + omega1 and the Casimir of a
    built representation at index N (K2 = {K1,K3} - omega2 by construction),
    each times L^2, on the integer ``LinOp``s L K_i of the stored band
    columns; L is the lcm of all denominators.  Its 7 products are the
    ``mat_mul`` calls, each O(N) on two tridiagonal factors."""
    RP, Ks = rep.params, (rep.K1, rep.K2, rep.K3)
    om1, _, om3 = RP.omegas
    L = math.lcm(*(x.denominator for K in Ks for col in K for x in col.values()),
                 om1.denominator, om3.denominator, rep.casimir.denominator)
    A1, A2, A3 = (LinOp.real([{i: x.numerator * (L // x.denominator)
                               for i, x in col.items() if x} for col in K], 1)
                  for K in Ks)
    eye = LinOp.identity(RP.N + 1)

    report = VerificationReport(f"racah representation (N={RP.N})")
    report.record("{K1,K2} = K3 + omega3", RP.N, mat_mul(A1, A2) + mat_mul(A2, A1)
                  == A3.scale(L) + eye.scale(L * L * om3))
    report.record("{K2,K3} = K1 + omega1", RP.N, mat_mul(A2, A3) + mat_mul(A3, A2)
                  == A1.scale(L) + eye.scale(L * L * om1))
    report.record("K1^2 + K2^2 + K3^2 = casimir", RP.N,
                  mat_mul(A1, A1) + mat_mul(A2, A2) + mat_mul(A3, A3)
                  == eye.scale(L * L * rep.casimir))
    return report


def _continuant(rep: TridiagRep) -> tuple[list[list[int]], list[int]]:
    """K1 v = lambda_s v solved row by row on integers, for each s.

    Row k, B_{k-1} v_{k-1} + K1_kk v_k + D_{k+1} v_{k+1} = lambda_s v_k, is
    scaled by its own r_k, the lcm of the denominators of B_{k-1}, K1_kk,
    D_{k+1} and the lambda_s = ``spectrum_value(s, mu2 + mu3)``.  With the
    integers a_k = r_k K1_kk, b_k = r_k B_{k-1}, e_k = r_k D_{k+1} and
    Lambda_k = r_k lambda_s, it gives
    w_{k+1} = (Lambda_k - a_k) w_k - b_k e_{k-1} w_{k-1} from w_0 = 1, and
    v_k = w_k / (e_0 ... e_{k-1}) for k <= N.  Returns the rows
    w_0..w_{N+1} and the products e_0 ... e_{k-1} (k <= N).  The last row
    of K1 v = lambda_s v holds exactly when w_{N+1} = 0: w_{N+1} is
    (prod r_k) det(lambda_s - K1).
    """
    N = rep.params.N
    lams = [spectrum_value(s, rep.params.mu2 + rep.params.mu3) for s in range(N + 1)]
    lam_den = math.lcm(*(x.denominator for x in lams))
    lams = [x.numerator * (lam_den // x.denominator) for x in lams]
    # Row k reads B_{k-1}, K1_kk and D_{k+1}, with B_{-1} = D_{N+1} = 0; no
    # other e_k vanishes, since B_k D_{k+1} > 0.
    scaled, eprod, e = [], [1], 0  # eprod[k] = e_0 ... e_{k-1}; e = e_{k-1}
    for k in range(N + 1):
        near = (rep.B[k - 1] if k else ZERO, rep.K1[k][k],
                rep.D[k + 1] if k < N else ZERO)
        r = math.lcm(lam_den, *(x.denominator for x in near))
        b, a, e_next = (x.numerator * (r // x.denominator) for x in near)
        scaled.append((r // lam_den, a, b * e))  # r_k / lam_den, a_k, b_k e_{k-1}
        e = e_next
        eprod.append(eprod[-1] * e)
    rows = []
    for lam in lams:
        w = [1]
        for k, (scale, a, be) in enumerate(scaled):
            w.append((lam * scale - a) * w[k] - be * (w[k - 1] if k else 0))
        rows.append(w)
    return rows, eprod[:-1]


def k1_spectrum_check(rep: TridiagRep,
                      bi_steps: list[tuple[Rat, Rat]]) -> VerificationReport:
    """Spectrum of K1 and the recurrence of its eigenvectors, exactly.

    ``bi_steps`` are the ``recurrence_steps`` (b_k, u_k) of degrees 0..N
    of the identified BI parameters.  The leading k x k minor q_k of
    2x + 1/2 - K1 has the monic continuant steps
    ((K1_kk - 1/2) / 2, B_{k-1} D_k / 4); these equal the BI steps, so
    q_k = 2^k B_k ("K1 continuant").  "K1 spectrum" @ s checks
    w_{N+1}(lambda_s) = 0 in ``_continuant``, which is
    (prod r_k) det(lambda_s - K1): lambda_s is an eigenvalue.  The N+1
    values lambda_s are distinct (mu2 + mu3 > -1), so spec K1 = {lambda_s}.
    """
    RP = rep.params
    report = VerificationReport("racah spectra")
    products = (ZERO, *rep.offdiag_products)
    steps = [((rep.K1[k][k] - HALF) / 2, products[k] / 4) for k in range(RP.N + 1)]
    for k, (step, bi_step) in enumerate(zip(steps, bi_steps, strict=True)):
        report.record("K1 continuant = 2^k BI recurrence", k, step == bi_step)
    for s, w in enumerate(rep.continuant[0]):
        report.record("K1 spectrum", s, w[-1] == 0)
    return report


def racah_overlaps(rep: TridiagRep) -> list[list[Rat]]:
    """Overlap matrix <s|k> of a built representation, exactly.

    Row s is the K1 eigenvector v of eigenvalue
    lambda_s = (-1)^s (s + mu2 + mu3 + 1/2) in the K3 eigenbasis of
    ``rep``, scaled to v_0 = 1: rows 0..N of the integer continuant of
    ``_continuant``, one Fraction per entry.  With ``k1_spectrum_check``,
    v_k = 2^k B_k(x_s) / prod_{j<=k} D_j at 2 x_s + 1/2 = lambda_s.
    """
    rows, eprod = rep.continuant
    return [[Fraction(w_k, e) for w_k, e in zip(w[:-1], eprod, strict=True)]
            for w in rows]


# ---------------------------------------------------------------------------
# threefold tensor product, exactly on one degree slice

@dataclass(frozen=True)
class TensorSlice:
    """Intermediate Casimirs on the states |n1, n2, n3>, n1 + n2 + n3 = m."""

    Q12: LinOp
    Q23: LinOp
    Q4: LinOp
    Q12_alt: LinOp


def tensor_slice(RP: RacahParams, m: int) -> TensorSlice:
    """Q12, Q23, Q4 and the expanded form of Q12 on the (m+1)(m+2)/2
    states |n1, n2, n3> with n1 + n2 + n3 = m, ordered by (n1, n2).

    Each factor is the module of ``sl1`` (epsilon = +1, mu = mu_i) in the
    gauge J+|n> = |n+1>, J-|n> = rho_n^2 |n-1>, which differs from the
    unitary one by a diagonal change of basis; every entry is therefore
    rational.  For a set A of factors,
    J±_A = sum_{a in A} J±_a prod_{b in A, b > a} R_b, J0_A = sum J0_a,
    R_A = prod R_a and Q_A = (J+_A J-_A - J0_A + 1/2) R_A.  Each of these
    operators preserves n1 + n2 + n3, so nothing is truncated.
    """
    mus = (RP.mu1, RP.mu2, RP.mu3)
    modules = [ModuleParams.make(1, mu) for mu in mus]
    states = [(n1, n2, m - n1 - n2)
              for n1 in range(m + 1) for n2 in range(m + 1 - n1)]
    index = {n: i for i, n in enumerate(states)}

    def ladder(v: dict, A: tuple[int, ...], step: int) -> dict:
        """J+_A (step 1) or J-_A (step -1) on v = {state: coefficient}."""
        out: dict = {}
        for n, c in v.items():
            for a in A:
                x = c if step > 0 else c * rho_squared(modules[a], n[a])
                if x:  # rho_0^2 = 0: J- annihilates n_a = 0
                    if sum(n[b] for b in A if b > a) % 2:
                        x = -x
                    k = (*n[:a], n[a] + step, *n[a + 1:])
                    out[k] = out.get(k, ZERO) + x
        return out

    def sign(n, A) -> int:  # the eigenvalue of R_A on |n>
        return -1 if sum(n[a] for a in A) % 2 else 1

    def matrix(column) -> LinOp:
        return LinOp.make({index[k]: x for k, x in column(n).items()}
                          for n in states)

    def casimir(A: tuple[int, ...]) -> LinOp:
        def column(n):
            v = ladder(ladder({n: ONE}, A, -1), A, 1)
            v[n] = v.get(n, ZERO) + HALF - sum(n[a] + mus[a] + HALF for a in A)
            return {k: sign(n, A) * x for k, x in v.items()}
        return matrix(column)

    def q12_expanded(n):
        # Q12 = (J-_1 J+_2 - J+_1 J-_2) R_1 - R_1 R_2 / 2 - mu1 R_2 - mu2 R_1
        v = ladder(ladder({n: ONE}, (1,), 1), (0,), -1)
        for k, x in ladder(ladder({n: ONE}, (1,), -1), (0,), 1).items():
            v[k] = v.get(k, ZERO) - x
        r1, r2 = sign(n, (0,)), sign(n, (1,))
        v = {k: r1 * x for k, x in v.items()}
        v[n] = v.get(n, ZERO) - r1 * r2 * HALF - mus[0] * r2 - mus[1] * r1
        return v

    return TensorSlice(casimir((0, 1)), casimir((1, 2)), casimir((0, 1, 2)),
                       matrix(q12_expanded))


def _prefix_products(op: LinOp, roots: list[Rat]) -> list[LinOp]:
    """[1, (op - r_0), (op - r_0)(op - r_1), ...] over the roots r_i."""
    eye = LinOp.identity(len(op.re))
    out = [eye]
    for r in roots:
        out.append(out[-1] @ (op - eye.scale(r)))
    return out


def tensor_oracle(RP: RacahParams, m: int) -> VerificationReport:
    """The Racah structure of the threefold tensor product on slice m,
    exactly.

    Q12 and Q23 are annihilated by their spectra
    -lambda_s = (-1)^(s+1)(s + mu_i + mu_j + 1/2), s <= m, and commute
    with Q4.  Q4 is annihilated by q_j = (-1)^(j+1)(j + mu1 + mu2 + mu3 + 1),
    j <= m; the Lagrange projectors E_j = prod_{i != j} (Q4 - q_i) / (q_j - q_i)
    onto its eigenspaces are formed once from prefix and suffix products.
    On the image of E_j, of dimension j + 1, K3 = -Q12 has the spectrum
    lambda_s = (-1)^s (s + mu1 + mu2 + 1/2), s <= j, and K1 = -Q23, K3 and
    K2 = {K1,K3} - omega2 satisfy both Bannai-Ito relations with the
    omega_i at mu = -q_j: at j = N, the representation of
    ``build_tridiag_rep``.
    """
    report = VerificationReport(f"tensor-product oracle (m={m})")
    ts = tensor_slice(RP, m)
    eye = LinOp.identity(len(ts.Q4.re))
    zero = eye.scale(ZERO)
    report.record("Q12 coproduct form = expanded form", m, ts.Q12 == ts.Q12_alt)
    k1, k3 = -ts.Q23, -ts.Q12
    # prod_{s<j} (K - lambda_s) for j = 0..m+1; the last is +-prod (Q + lambda_s).
    k3_chain = _prefix_products(
        k3, [spectrum_value(s, RP.mu1 + RP.mu2) for s in range(m + 1)])
    k1_chain = _prefix_products(
        k1, [spectrum_value(s, RP.mu2 + RP.mu3) for s in range(m + 1)])
    for name, op, chain in (("Q12", ts.Q12, k3_chain), ("Q23", ts.Q23, k1_chain)):
        report.record(f"prod_(s<=m) ({name} + lambda_s) = 0", m, chain[-1] == zero)
        report.record(f"[Q4,{name}] = 0", m, ts.Q4 @ op == op @ ts.Q4)

    q = [-spectrum_value(j, RP.mu1 + RP.mu2 + RP.mu3 + HALF) for j in range(m + 1)]
    prefix = _prefix_products(ts.Q4, q)  # prefix[j] = prod_{i<j} (Q4 - q_i)
    suffix = _prefix_products(ts.Q4, q[:0:-1])  # suffix[m-j] = prod_{i>j}
    report.record("prod_(j<=m) (Q4 - q_j) = 0", m, prefix[-1] == zero)
    # K2_j = k1k3 - omega2(j), so {K1,K2_j} = {K1,k1k3} - 2 omega2(j) K1 and
    # {K2_j,K3} = {k1k3,K3} - 2 omega2(j) K3: both anticommutators once.
    k1k3 = anticomm(k1, k3)
    rel12, rel23 = anticomm(k1, k1k3) - k3, anticomm(k1k3, k3) - k1
    k1x2, k3x2 = k1 + k1, k3 + k3
    for j, q_j in enumerate(q):
        denom = math.prod((q_j - q_i for i, q_i in enumerate(q) if i != j), start=ONE)
        proj = (prefix[j] @ suffix[m - j]).scale(1 / denom)
        report.record("trace E_j = j + 1", j, proj.trace() == j + 1)
        report.record("prod_(s<=j) (K3 - lambda_s) E_j = 0", j,
                      k3_chain[j + 1] @ proj == zero)
        om1, om2, om3 = dataclasses.replace(RP, N=j).omegas
        lhs12 = rel12 - k1x2.scale(om2) - eye.scale(om3)
        lhs23 = rel23 - k3x2.scale(om2) - eye.scale(om1)
        report.record("BI relation {K1,K2} E_j", j, lhs12 @ proj == zero)
        report.record("BI relation {K2,K3} E_j", j, lhs23 @ proj == zero)
    return report


def central_extension_check(RP: RacahParams, m: int) -> VerificationReport:
    """Central-extension relations among the constants of motion, exactly.

    On the whole slice (no projection onto the eigenspaces of Q4) the
    operators C3 = -Q12, C1 = -Q23 close with the central Q = Q4: the
    {C3,C1} relation defines C2, and the {C1,C2} and {C2,C3} relations
    are checked.
    """
    report = VerificationReport(f"central extension (m={m})")
    ts = tensor_slice(RP, m)
    mu1, mu2, mu3 = RP.mu1, RP.mu2, RP.mu3
    eye = LinOp.identity(len(ts.Q4.re))
    c3, c1, q = -ts.Q12, -ts.Q23, ts.Q4
    c2 = anticomm(c3, c1) + q.scale(2 * mu2) - eye.scale(2 * mu3 * mu1)
    report.record("{C1,C2} = C3 - 2 mu3 Q + 2 mu1 mu2", m,
                  anticomm(c1, c2)
                  == c3 - q.scale(2 * mu3) + eye.scale(2 * mu1 * mu2))
    report.record("{C2,C3} = C1 - 2 mu1 Q + 2 mu2 mu3", m,
                  anticomm(c2, c3)
                  == c1 - q.scale(2 * mu1) + eye.scale(2 * mu2 * mu3))
    return report
