"""The Racah problem for sl_{-1}(2) and the Bannai-Ito algebra.

Two independent constructions are cross-checked:

  * an exact (N+1)x(N+1) tridiagonal representation built from the
    closed-form coefficients B_k, D_k, with the anticommutation relations
    and the Casimir value verified over the rationals, and
  * a floating-point oracle that assembles the intermediate Casimir
    operators on an actual threefold tensor product of discrete-series
    modules and checks spectra, commutation and the central-extension
    relations numerically.

The overlap coefficients between the two eigenbases reproduce the
Bannai-Ito polynomials on their grid.

Exact matrices are plain nested lists of Fractions; the off-diagonal
data of the representation is kept as the rational product B_{k-1} D_k
(the symmetrized square root is materialized only in floating point).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bi_operator import BIParams
from .bi_poly import bi_recurrence, grid_point, poly_eval
from .errors import (
    BILabError,
    DegenerateParameters,
    NotUnitary,
    TruncationFailure,
)
from .exact import HALF, ONE, Rat, ZERO, rat_str, rat_to_float
from .report import VerificationReport

Matrix = list[list[Rat]]


# ---------------------------------------------------------------------------
# exact matrix helpers (sizes stay <= N+1 <= 9)

def mat_zero(n: int) -> Matrix:
    return [[ZERO] * n for _ in range(n)]

def mat_identity(n: int, c: Rat = ONE) -> Matrix:
    out = mat_zero(n)
    for i in range(n):
        out[i][i] = c
    return out

def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    out = mat_zero(n)
    for i in range(n):
        for k in range(n):
            aik = a[i][k]
            if aik == 0:
                continue
            row = b[k]
            oi = out[i]
            for j in range(n):
                if row[j] != 0:
                    oi[j] += aik * row[j]
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

    def k1_symmetric_float(self) -> np.ndarray:
        """Similarity-transformed symmetric form with off-diagonals U_k."""
        n = self.params.N + 1
        mat = np.zeros((n, n))
        for k in range(n):
            mat[k, k] = rat_to_float(self.K1[k][k])
        for k in range(1, n):
            u = np.sqrt(rat_to_float(self.offdiag_products[k - 1]))
            mat[k - 1, k] = mat[k, k - 1] = u
        return mat

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
    B = [bk_dk(RP, k)[0] for k in range(n)]
    D = [bk_dk(RP, k)[1] for k in range(n)]
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
        val = k + RP.mu1 + RP.mu2 + HALF
        K3[k][k] = val if k % 2 == 0 else -val

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

    return TridiagRep(RP, K1, K2, K3, tuple(B), tuple(D), casimir)


def k1_spectrum_check(rep: TridiagRep, RP: RacahParams) -> VerificationReport:
    """K1 spectrum against (-1)^s (s + mu2 + mu3 + 1/2); K3 diagonal exact."""
    report = VerificationReport("racah spectra")
    n = RP.N + 1
    vals = np.sort(np.linalg.eigvalsh(rep.k1_symmetric_float()))
    expected = np.sort(
        [
            rat_to_float(
                (s + RP.mu2 + RP.mu3 + HALF) * (1 if s % 2 == 0 else -1)
            )
            for s in range(n)
        ]
    )
    for i, (got, want) in enumerate(zip(vals, expected)):
        report.record("K1 spectrum", i, abs(got - want) < 1e-10,
                      f"got {got}, want {want}")
    for k in range(n):
        val = k + RP.mu1 + RP.mu2 + HALF
        want = val if k % 2 == 0 else -val
        report.record("K3 diagonal", k, rep.K3[k][k] == want)
    return report


def racah_overlaps(RP: RacahParams, tol: float = 1e-9) -> np.ndarray:
    """Overlap matrix <s|k> with rows proportional to 2^k B_k(x_s).

    Each row s is the K1 eigenvector of eigenvalue (-1)^s (s+mu2+mu3+1/2)
    in the K3 eigenbasis; dividing by its first component recovers
    2^k B_k(x_s) with the identified BI parameters.
    """
    rep = build_tridiag_rep(RP)
    n = RP.N + 1
    vals, vecs = np.linalg.eigh(rep.k1_symmetric_float())
    targets = [
        rat_to_float((s + RP.mu2 + RP.mu3 + HALF) * (1 if s % 2 == 0 else -1))
        for s in range(n)
    ]
    overlap = np.zeros((n, n))
    used: set[int] = set()
    for s, t in enumerate(targets):
        j = min(
            (i for i in range(n) if i not in used),
            key=lambda i: abs(vals[i] - t),
        )
        if abs(vals[j] - t) > 1e-10:
            raise BILabError(f"K1 eigenvalue {t} missing (closest {vals[j]})")
        used.add(j)
        overlap[s, :] = vecs[:, j]

    # In the non-normalized K3 eigenbasis the matrix element is
    # w(s) 2^k B_k(x_s); the orthonormal basis used here differs by the
    # column norm prod_{j<=k} U_j, so each column carries the constant
    # t_k = 2^k / prod U_j.
    P = RP.identifications()
    polys = [bi_recurrence(P, k) for k in range(n)]
    t = [1.0]
    for k in range(1, n):
        u = np.sqrt(rat_to_float(rep.offdiag_products[k - 1]))
        t.append(t[-1] * 2.0 / u)
    for s in range(n):
        x_s = grid_point(P, s)
        w = overlap[s, 0]
        if abs(w) < 1e-13:
            raise BILabError(f"vanishing weight component at s={s}")
        for k in range(n):
            want = t[k] * rat_to_float(poly_eval(polys[k], x_s))
            if abs(overlap[s, k] / w - want) > tol * max(1.0, abs(want)):
                raise BILabError(
                    f"overlap ({s},{k}) = {overlap[s, k] / w} != "
                    f"t_k 2^k B_k = {want}"
                )
    return overlap


# ---------------------------------------------------------------------------
# tensor-product oracle (floating point)

def _factor_ops(mu: float, dim: int):
    """Single-module matrices on the truncated basis n = 0..dim-1."""
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


def _kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(a, b), c)


@dataclass
class TensorSlice:
    """Intermediate-Casimir matrices restricted to a fixed-degree slice."""

    m: int
    dim: int
    Q12: np.ndarray
    Q23: np.ndarray
    Q4: np.ndarray
    R4: np.ndarray
    Q12_alt: np.ndarray


def tensor_slice(RP: RacahParams, m: int) -> TensorSlice:
    """Assemble Q12, Q23, Q4 and R on the span of |n1,n2,n3>, sum = m.

    Per-factor truncation is m+3 so that no intermediate ladder state
    falls off the edge; the composite operators preserve the slice.
    """
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
        R4=r4[ix],
        Q12_alt=q12_alt[ix],
    )


def _eigenspaces(mat: np.ndarray, cluster_tol: float = 1e-6):
    """Orthonormal bases of the eigenspaces of a symmetric matrix."""
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
    operators C3 = -Q12, C1 = -Q23 close with the central matrix Q; the
    spectral statement H = Omega^2 + Omega and the supersymmetry identity
    (1/2){S,S} = H + 1/4 with S = Omega + 1/2 are verified as well.
    """
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

    omega = q @ ts.R4
    h = omega @ omega + omega
    omega_vals = np.sort(np.linalg.eigvals(omega).real)
    h_vals = np.sort(np.linalg.eigvals(h).real)
    mapped = np.sort(omega_vals**2 + omega_vals)
    spec_err = float(np.max(np.abs(h_vals - mapped)))
    report.record("spec(H) = {w^2 + w : w in spec(QR)}", m, spec_err < tol,
                  f"max deviation {spec_err}")

    s_op = omega + 0.5 * eye
    susy_err = float(np.max(np.abs(s_op @ s_op - h - 0.25 * eye)))
    report.record("(1/2){S,S} = H + 1/4", m, susy_err < 1e-12,
                  f"residual {susy_err}")
    return report
