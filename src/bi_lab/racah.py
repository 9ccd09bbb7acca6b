"""The Racah problem for sl_{-1}(2) and the Bannai-Ito algebra.

Two independent constructions are cross-checked:

  * an exact (N+1)x(N+1) tridiagonal representation built from the
    closed-form coefficients B_k, D_k, with the anticommutation relations
    and the Casimir value verified over the rationals, and
  * a floating-point oracle that assembles the intermediate Casimir
    operators on an actual threefold tensor product of discrete-series
    modules and checks spectra, commutation and the central-extension
    relations numerically.

The spectrum of K1 and the overlaps between the two eigenbases are exact
and read off the built representation: the characteristic polynomial of
K1 follows a continuant whose steps are those of the Bannai-Ito
recurrence, so its roots are the grid points (``k1_spectrum_check``) and
its eigenvectors are the Bannai-Ito polynomials on the grid
(``racah_overlaps``).  One build serves the relations, the spectrum and
the overlaps.

Exact matrices are dense nested lists of Fractions, but K1 and K3 are
tridiagonal and diagonal, so ``mat_mul`` multiplies only nonzero entries.
The off-diagonal data of the representation is kept as the rational
product B_{k-1} D_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .bi_operator import BIParams
from .bi_poly import RecurrenceCoeffs, grid_point, monic_from_steps, recurrence_steps
from .errors import (
    BILabError,
    DegenerateParameters,
    NotUnitary,
    TruncationFailure,
)
from .exact import HALF, ONE, Rat, ZERO, rat_str, rat_to_float
from .poly import P_ONE, Poly
from .report import VerificationReport

if TYPE_CHECKING:  # numpy loads only inside the float oracles below
    import numpy as np

Matrix = list[list[Rat]]


# ---------------------------------------------------------------------------
# exact (N+1) x (N+1) matrix helpers: dense nested lists, arithmetic only
# on nonzero entries (the racah command takes any N)

def mat_zero(n: int) -> Matrix:
    return [[ZERO] * n for _ in range(n)]

def mat_identity(n: int, c: Rat = ONE) -> Matrix:
    out = mat_zero(n)
    for i in range(n):
        out[i][i] = c
    return out

# Most entries are zero: mat_add and mat_sub do Fraction arithmetic only
# where both summands are nonzero.
def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y if x and y else x or y for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]

def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y if x and y else x or -y for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]

def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Dense a @ b; each row of b is listed as its nonzero (j, b_kj) once,
    and each output entry starts from its first product."""
    n = len(a)
    b_rows = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    out = []
    for ra in a:
        acc: dict[int, Rat] = {}
        for k, aik in enumerate(ra):
            if aik:
                for j, bkj in b_rows[k]:
                    p = aik * bkj
                    acc[j] = acc[j] + p if j in acc else p
        row = [ZERO] * n
        for j, x in acc.items():
            row[j] = x
        out.append(row)
    return out

def mat_anticomm(a: Matrix, b: Matrix) -> Matrix:
    return mat_add(mat_mul(a, b), mat_mul(b, a))


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
            raise DegenerateParameters("each mu_i must exceed -1/2")
        if N < 0:
            raise DegenerateParameters("N must be non-negative")
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

    @property
    def omegas(self) -> tuple[Rat, Rat, Rat]:
        m1, m2, m3, m = self.mu1, self.mu2, self.mu3, self.mu
        return (
            2 * (m1 * m + m2 * m3),
            2 * (m1 * m3 + m2 * m),
            2 * (m1 * m2 + m3 * m),
        )

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
    numerator carries an explicit factor k).
    """
    m1, m2, m3, mu = RP.mu1, RP.mu2, RP.mu3, RP.mu
    den_b = 2 * (k + m1 + m2 + 1)
    if den_b == 0:
        raise DegenerateParameters(f"B_{k} denominator vanishes")
    if k % 2 == 0:
        B = (k + 2 * m2 + 1) * (k + m1 + m2 + m3 - mu + 1) / den_b
    else:
        B = (k + 2 * m1 + 2 * m2 + 1) * (k + m1 + m2 + m3 + mu + 1) / den_b
    if k == 0:
        D = ZERO
    else:
        den_d = 2 * (k + m1 + m2)
        if den_d == 0:
            raise DegenerateParameters(f"D_{k} denominator vanishes")
        if k % 2 == 0:
            D = -(k * (k + m1 + m2 - m3 - mu)) / den_d
        else:
            D = -((k + 2 * m1) * (k + m1 + m2 - m3 + mu)) / den_d
    return B, D


@dataclass(frozen=True)
class TridiagRep:
    """Exact matrices of the Racah realization on the K3 eigenbasis."""

    params: RacahParams
    K1: Matrix
    K2: Matrix
    K3: Matrix
    B: tuple[Rat, ...]
    D: tuple[Rat, ...]
    casimir: Rat

    @property
    def q4(self) -> Rat:
        return -self.params.mu

    @property
    def offdiag_products(self) -> tuple[Rat, ...]:
        """U_k^2 = B_{k-1} D_k for k = 1..N (kept rational)."""
        return tuple(self.B[k - 1] * self.D[k] for k in range(1, self.params.N + 1))

    def to_json(self) -> dict:
        return {
            "N": self.params.N,
            "q4": rat_str(self.q4),
            "casimir": rat_str(self.casimir),
            "K1": [[rat_str(x) for x in row] for row in self.K1],
            "K2": [[rat_str(x) for x in row] for row in self.K2],
            "K3": [[rat_str(x) for x in row] for row in self.K3],
        }


def build_tridiag_rep(RP: RacahParams) -> TridiagRep:
    """Exact representation; relations and Casimir are verified on build."""
    N = RP.N
    n = N + 1
    B, D = zip(*(bk_dk(RP, k) for k in range(n)))
    if B[N] != 0:
        raise TruncationFailure(f"B_{N} = {B[N]} != 0: matrix does not close")
    for k in range(1, n):
        if B[k - 1] * D[k] <= 0:
            raise NotUnitary(f"B_{k-1} D_{k} = {B[k-1] * D[k]} not positive")

    K1 = mat_zero(n)
    for k in range(n):
        K1[k][k] = RP.mu2 + RP.mu3 + HALF - B[k] - D[k]
        if k + 1 < n:
            K1[k + 1][k] = B[k]     # raising part of column k
        if k - 1 >= 0:
            K1[k - 1][k] = D[k]     # lowering part of column k
    K3 = mat_zero(n)
    for k in range(n):
        K3[k][k] = spectrum_value(k, RP.mu1 + RP.mu2)

    om1, om2, om3 = RP.omegas
    K2 = mat_sub(mat_anticomm(K1, K3), mat_identity(n, om2))

    if mat_anticomm(K1, K2) != mat_add(K3, mat_identity(n, om3)):
        raise BILabError("{K1,K2} = K3 + Omega3 failed (logic error)")
    if mat_anticomm(K2, K3) != mat_add(K1, mat_identity(n, om1)):
        raise BILabError("{K2,K3} = K1 + Omega1 failed (logic error)")
    casimir = RP.casimir_value()
    total = mat_add(
        mat_mul(K1, K1), mat_add(mat_mul(K2, K2), mat_mul(K3, K3))
    )
    if total != mat_identity(n, casimir):
        raise BILabError("Casimir is not the expected scalar (logic error)")

    return TridiagRep(RP, K1, K2, K3, B, D, casimir)


def k1_spectrum_check(rep: TridiagRep,
                      coeffs: list[RecurrenceCoeffs]) -> VerificationReport:
    """Spectrum of K1 from its characteristic polynomial, exactly.

    ``coeffs`` are the recurrence coefficients of degrees 0..N of the
    identified BI parameters.  The leading k x k minor q_k of
    2x + 1/2 - K1 follows the continuant
    q_{k+1} = (2x + 1/2 - K1_kk) q_k - B_{k-1} D_k q_{k-1}, so the monic
    q_k / 2^k has the steps ((K1_kk - 1/2) / 2, B_{k-1} D_k / 4).  These
    equal the BI steps (b_k, u_k), so q_k = 2^k B_k; with
    q_{N+1} = 2^{N+1} prod_s (x - x_s) and lambda_s = 2 x_s + 1/2 this
    gives spec K1 = {lambda_s} and the eigenvectors of ``racah_overlaps``.
    """
    RP = rep.params
    P = RP.identifications()
    report = VerificationReport("racah spectra")
    products = (ZERO, *rep.offdiag_products)
    steps = [((rep.K1[k][k] - HALF) / 2, products[k] / 4) for k in range(RP.N + 1)]
    bi_steps = recurrence_steps(P, coeffs)
    for k, (step, bi_step) in enumerate(zip(steps, bi_steps, strict=True)):
        report.record("K1 continuant = 2^k BI recurrence", k, step == bi_step)
    grid = [grid_point(P, s) for s in range(RP.N + 1)]
    target = P_ONE
    for x_s in grid:
        target = Poly((0, *target.nums), target.den) - target.scale(x_s)
    report.record("K1 characteristic polynomial", RP.N,
                  monic_from_steps(steps)[-1] == target)
    for s, x_s in enumerate(grid):
        report.record("K1 spectrum", s,
                      spectrum_value(s, RP.mu2 + RP.mu3) == 2 * x_s + HALF)
    return report


def racah_overlaps(rep: TridiagRep) -> Matrix:
    """Overlap matrix <s|k> of a built representation, exactly.

    Row s is the K1 eigenvector v of eigenvalue
    lambda_s = (-1)^s (s + mu2 + mu3 + 1/2) in the K3 eigenbasis of
    ``rep``, scaled to v_0 = 1: row k of K1 v = lambda_s v is solved for
    v_{k+1}, which makes v_k = q_k(x) / prod_{j<=k} D_j at
    2x + 1/2 = lambda_s.  Where ``k1_spectrum_check`` passes, x = x_s,
    v_k = 2^k B_k(x_s) / prod_{j<=k} D_j and the last row holds too.
    """
    RP = rep.params
    out = []
    for s in range(RP.N + 1):
        lam = spectrum_value(s, RP.mu2 + RP.mu3)
        v = [ONE]
        for k in range(RP.N):
            lower = rep.B[k - 1] * v[k - 1] if k else ZERO
            v.append(((lam - rep.K1[k][k]) * v[k] - lower) / rep.D[k + 1])
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# tensor-product oracle (floating point)

def _factor_ops(mu: float, dim: int):
    """Single-module matrices on the truncated basis n = 0..dim-1."""
    import numpy as np
    n = np.arange(dim, dtype=float)
    j0 = np.diag(n + mu + 0.5)
    r = np.diag((-1.0) ** np.arange(dim))
    rho = np.sqrt(n + mu * (1.0 - (-1.0) ** np.arange(dim)))
    jp = np.zeros((dim, dim))
    jm = np.zeros((dim, dim))
    for k in range(1, dim):
        jp[k, k - 1] = rho[k]   # J+ |k-1> = rho_k |k>
        jm[k - 1, k] = rho[k]   # J- |k>   = rho_k |k-1>
    return j0, jp, jm, r


@dataclass
class TensorSlice:
    """Intermediate-Casimir matrices restricted to a fixed-degree slice."""

    m: int
    dim: int
    Q12: np.ndarray
    Q23: np.ndarray
    Q4: np.ndarray
    Q12_alt: np.ndarray


def tensor_slice(RP: RacahParams, m: int) -> TensorSlice:
    """Assemble Q12, Q23 and Q4 on the span of |n1,n2,n3>, sum = m.

    Per-factor truncation is m+3 so that no intermediate ladder state
    falls off the edge; the composite operators preserve the slice.
    """
    import numpy as np

    def _kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        return np.kron(np.kron(a, b), c)

    dim1 = m + 3
    mus = [rat_to_float(x) for x in (RP.mu1, RP.mu2, RP.mu3)]
    ops = [_factor_ops(mu, dim1) for mu in mus]
    eye = np.eye(dim1)
    (j01, jp1, jm1, r1), (j02, jp2, jm2, r2), (j03, jp3, jm3, r3) = ops

    # Pair (1,2): coproduct ladder operators and Casimir.
    j12p = _kron3(jp1, r2, eye) + _kron3(eye, jp2, eye)
    j12m = _kron3(jm1, r2, eye) + _kron3(eye, jm2, eye)
    j012 = _kron3(j01, eye, eye) + _kron3(eye, j02, eye)
    r12 = _kron3(r1, r2, eye)
    big_eye = np.eye(dim1**3)
    q12 = (j12p @ j12m - j012 + 0.5 * big_eye) @ r12

    # Expanded single-product form of the same operator (consistency check).
    q12_alt = (
        (_kron3(jm1, jp2, eye) - _kron3(jp1, jm2, eye)) @ _kron3(r1, eye, eye)
        - 0.5 * r12
        - mus[0] * _kron3(eye, r2, eye)
        - mus[1] * _kron3(r1, eye, eye)
    )

    # Pair (2,3).
    j23p = _kron3(eye, jp2, r3) + _kron3(eye, eye, jp3)
    j23m = _kron3(eye, jm2, r3) + _kron3(eye, eye, jm3)
    j023 = _kron3(eye, j02, eye) + _kron3(eye, eye, j03)
    r23 = _kron3(eye, r2, r3)
    q23 = (j23p @ j23m - j023 + 0.5 * big_eye) @ r23

    # Total Casimir.
    j4p = _kron3(jp1, r2, r3) + _kron3(eye, jp2, r3) + _kron3(eye, eye, jp3)
    j4m = _kron3(jm1, r2, r3) + _kron3(eye, jm2, r3) + _kron3(eye, eye, jm3)
    j04 = (
        _kron3(j01, eye, eye) + _kron3(eye, j02, eye) + _kron3(eye, eye, j03)
    )
    r4 = _kron3(r1, r2, r3)
    q4 = (j4p @ j4m - (j04 - 0.5 * big_eye)) @ r4

    idx = [
        n1 * dim1 * dim1 + n2 * dim1 + n3
        for n1 in range(m + 1)
        for n2 in range(m + 1 - n1)
        for n3 in [m - n1 - n2]
    ]
    ix = np.ix_(idx, idx)
    return TensorSlice(
        m=m,
        dim=len(idx),
        Q12=q12[ix],
        Q23=q23[ix],
        Q4=q4[ix],
        Q12_alt=q12_alt[ix],
    )


def _eigenspaces(mat: np.ndarray, cluster_tol: float = 1e-6):
    """Orthonormal bases of the eigenspaces of a symmetric matrix."""
    import numpy as np
    vals, vecs = np.linalg.eigh(mat)
    spaces = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[start] > cluster_tol:
            spaces.append((float(np.mean(vals[start:i])), vecs[:, start:i]))
            start = i
    return spaces


def tensor_oracle(RP: RacahParams, m: int, tol: float = 1e-9) -> VerificationReport:
    """Numerical verification of the Racah structure on a degree slice."""
    import numpy as np
    report = VerificationReport(f"tensor-product oracle (m={m})")
    ts = tensor_slice(RP, m)
    mus = [rat_to_float(x) for x in (RP.mu1, RP.mu2, RP.mu3)]

    report.record(
        "Q12 coproduct form = expanded form", m,
        float(np.max(np.abs(ts.Q12 - ts.Q12_alt))) < 1e-10,
    )

    # Spectra of the intermediate Casimir operators.
    # Both intermediate Casimirs carry the sign family (-1)^(s+1): this is
    # forced by K3 = -Q12 and K1 = -Q23 both having the Bannai-Ito spectra
    # (-1)^s (s + mu_i + mu_j + 1/2) on a total-Casimir eigenspace.
    q12_expected = [(-1.0) ** (s + 1) * (s + mus[0] + mus[1] + 0.5)
                    for s in range(m + 1)]
    q23_expected = [(-1.0) ** (s + 1) * (s + mus[1] + mus[2] + 0.5)
                    for s in range(m + 1)]
    report.note(
        "Q23 spectrum realized as (-1)^(s+1)(s+mu2+mu3+1/2); the opposite "
        "sign family is empirically absent"
    )
    for name, mat, cands in (
        ("Q12 spectrum", ts.Q12, q12_expected),
        ("Q23 spectrum", ts.Q23, q23_expected),
    ):
        for i, val in enumerate(np.linalg.eigvalsh(mat)):
            err = min(abs(val - c) for c in cands)
            report.record(name, i, err < tol, f"eig {val}, dist {err}")

    for name, mat in (("[Q4,Q12]", ts.Q12), ("[Q4,Q23]", ts.Q23)):
        norm = float(np.max(np.abs(ts.Q4 @ mat - mat @ ts.Q4)))
        report.record(f"{name} = 0", m, norm < 1e-10, f"norm {norm}")

    if m >= RP.N:
        q4_target = -rat_to_float(RP.mu)
        q4_vals = np.linalg.eigvalsh(ts.Q4)
        present = bool(np.min(np.abs(q4_vals - q4_target)) < tol)
        report.record("q4 = -mu present on slice", m, present)

    # Bannai-Ito relations on every total-Casimir eigenspace.
    for q4_val, basis in _eigenspaces(ts.Q4):
        mu_loc = -q4_val
        k1 = -(basis.T @ ts.Q23 @ basis)
        k3 = -(basis.T @ ts.Q12 @ basis)
        om1 = 2 * (mus[0] * mu_loc + mus[1] * mus[2])
        om2 = 2 * (mus[0] * mus[2] + mus[1] * mu_loc)
        om3 = 2 * (mus[0] * mus[1] + mus[2] * mu_loc)
        eye = np.eye(k1.shape[0])
        k2 = k1 @ k3 + k3 @ k1 - om2 * eye
        res3 = float(np.max(np.abs(k1 @ k2 + k2 @ k1 - k3 - om3 * eye)))
        res1 = float(np.max(np.abs(k2 @ k3 + k3 @ k2 - k1 - om1 * eye)))
        label = f"q4={q4_val:.6g} (dim {k1.shape[0]})"
        report.record("BI relation {K1,K2}", label, res3 < tol, f"residual {res3}")
        report.record("BI relation {K2,K3}", label, res1 < tol, f"residual {res1}")
    return report


def central_extension_check(
    RP: RacahParams, m: int, tol: float = 1e-9
) -> VerificationReport:
    """Central-extension relations among the constants of motion.

    On the full slice (no projection onto total-Casimir eigenspaces) the
    operators C3 = -Q12, C1 = -Q23 close with the central matrix Q: the
    {C3,C1} relation defines C2, and the {C1,C2} and {C2,C3} relations
    are checked.
    """
    import numpy as np
    report = VerificationReport(f"central extension (m={m})")
    ts = tensor_slice(RP, m)
    mus = [rat_to_float(x) for x in (RP.mu1, RP.mu2, RP.mu3)]
    eye = np.eye(ts.dim)

    c3 = -ts.Q12
    c1 = -ts.Q23
    q = ts.Q4
    # The {C3,C1} relation defines C2; the remaining two are then checked.
    c2 = c3 @ c1 + c1 @ c3 + 2 * mus[1] * q - 2 * mus[2] * mus[0] * eye

    res12 = float(np.max(np.abs(
        c1 @ c2 + c2 @ c1 - (c3 - 2 * mus[2] * q + 2 * mus[0] * mus[1] * eye)
    )))
    report.record("{C1,C2} = C3 - 2 mu3 Q + 2 mu1 mu2", m, res12 < tol,
                  f"residual {res12}")
    res23 = float(np.max(np.abs(
        c2 @ c3 + c3 @ c2 - (c1 - 2 * mus[0] * q + 2 * mus[1] * mus[2] * eye)
    )))
    report.record("{C2,C3} = C1 - 2 mu1 Q + 2 mu2 mu3", m, res23 < tol,
                  f"residual {res23}")
    return report
