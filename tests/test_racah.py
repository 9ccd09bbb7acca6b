"""Racah problem: exact representation, overlaps, tensor-product slice."""

import dataclasses
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from bi_lab.bi_poly import bi_recurrence, grid_point, recurrence_coeffs, recurrence_steps
from bi_lab.cli import EXIT_VERIFY_FAILED, main
from bi_lab.errors import BILabError
from bi_lab.linop import LinOp
from bi_lab.racah import (
    RacahParams,
    bk_dk,
    build_tridiag_rep,
    central_extension_check,
    k1_spectrum_check,
    mat_mul,
    racah_overlaps,
    representation_check,
    spectrum_value,
    tensor_oracle,
)
from bi_lab.suites import (
    DEFAULT_SEED,
    identification_check,
    random_racah_params,
    suite_racah,
)
from poly_oracle import poly_eval

R1 = RacahParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), 2)


def coeffs_of(rep):
    """Recurrence coefficients of degrees 0..N of the identified BI params."""
    P = rep.params.identifications()
    return [recurrence_coeffs(P, k) for k in range(rep.params.N + 1)]


def steps_of(rep):
    """Recurrence steps of degrees 0..N of the identified BI params."""
    return recurrence_steps(rep.params.identifications(), coeffs_of(rep))


def k1_symmetric(rep):
    """Float oracle: K1 as the symmetric tridiagonal J = S^-1 K1 S with
    off-diagonals U_k = sqrt(B_{k-1} D_k), and the diagonal of S
    (s_k / s_{k-1} = B_{k-1} / U_k), so S^-1 v is an eigenvector of J
    whenever v is one of K1."""
    n = rep.params.N + 1
    mat, scale = np.zeros((n, n)), np.ones(n)
    for k in range(n):
        mat[k, k] = float(rep.K1[k][k])
    for k in range(1, n):
        u = np.sqrt(float(rep.B[k - 1] * rep.D[k]))
        mat[k - 1, k] = mat[k, k - 1] = u
        scale[k] = scale[k - 1] * float(rep.B[k - 1]) / u
    return mat, scale


def failed_checks(report):
    return {e.check for e in report.failures}


def bk_dk_display(RP, k):
    """Oracle: B_k and D_k from their parity-split display, in Fraction
    arithmetic."""
    m1, m2, m3, mu = RP.mu1, RP.mu2, RP.mu3, RP.mu
    if k % 2 == 0:
        B = (k + 2 * m2 + 1) * (k + m1 + m2 + m3 - mu + 1) / (2 * (k + m1 + m2 + 1))
        D = -(k * (k + m1 + m2 - m3 - mu)) / (2 * (k + m1 + m2)) if k else 0
    else:
        B = (k + 2 * m1 + 2 * m2 + 1) * (k + m1 + m2 + m3 + mu + 1) \
            / (2 * (k + m1 + m2 + 1))
        D = -((k + 2 * m1) * (k + m1 + m2 - m3 + mu)) / (2 * (k + m1 + m2))
    return B, D


def test_bk_dk_matches_display():
    rng = random.Random(20)
    for _ in range(2000):
        mus = [Fraction(rng.randint(-9, 60), rng.randint(1, 24)) for _ in range(3)]
        if any(m <= Fraction(-1, 2) for m in mus):
            continue
        RP = RacahParams.make(*mus, rng.randint(0, 30))
        for k in range(RP.N + 2):
            got = bk_dk(RP, k)
            assert got == bk_dk_display(RP, k), (RP, k)
            assert all(type(x) is Fraction for x in got)


class TestFrozenValuesR1:
    def test_mu4(self):
        assert R1.mu4 == Fraction(49, 12)
        assert R1.mu == Fraction(49, 12)  # even N: mu = +mu4

    def test_bk_dk(self):
        assert bk_dk(R1, 0)[0] == Fraction(-20, 19)
        assert bk_dk(R1, 1)[1] == Fraction(-93, 38)
        assert bk_dk(R1, 2)[0] == 0  # truncation

    def test_casimir(self):
        assert R1.casimir_value() == Fraction(1213, 72)

    def test_identifications(self):
        P = R1.identifications()
        assert (P.rho1, P.rho2, P.r1, P.r2) == (
            Fraction(5, 12), Fraction(13, 6), Fraction(1, 12), Fraction(23, 12)
        )

    def test_rep_diagonals(self):
        rep = build_tridiag_rep(R1)
        assert rep.K1[0][0] == Fraction(136, 57)  # V_0
        assert rep.offdiag_products[0] == Fraction(930, 361)  # U_1^2
        assert [rep.K3[k][k] for k in range(3)] == [
            Fraction(13, 12), Fraction(-25, 12), Fraction(37, 12)
        ]

    def test_k1_spectrum(self):
        rep = build_tridiag_rep(R1)
        assert [spectrum_value(s, R1.mu2 + R1.mu3) for s in range(3)] == [
            Fraction(4, 3), Fraction(-7, 3), Fraction(10, 3)
        ]
        vals = np.sort(np.linalg.eigvalsh(k1_symmetric(rep)[0]))
        want = np.sort([4 / 3, -7 / 3, 10 / 3])
        assert np.max(np.abs(vals - want)) < 1e-10


class TestRepresentation:
    @pytest.mark.parametrize("N", range(6))
    def test_build_and_checks_all_parities(self, N):
        RP = RacahParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), N)
        rep = build_tridiag_rep(RP)
        assert representation_check(rep).passed
        assert k1_spectrum_check(rep, steps_of(rep)).passed
        assert identification_check(rep, coeffs_of(rep)).passed

    def test_mu_sign_odd_n(self):
        RP = RacahParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), 1)
        assert RP.mu == -RP.mu4

    def test_make_validates(self):
        with pytest.raises(BILabError, match="^each mu_i must exceed -1/2$"):
            RacahParams.make(Fraction(-1, 2), 1, 1, 2)
        with pytest.raises(BILabError, match="^N must be non-negative$"):
            RacahParams.make(1, 1, 1, -1)

    # Tuples outside make's domain reach the build's own guards.
    @pytest.mark.parametrize("mus, N, message", [
        ((Fraction(-25, 3), Fraction(-17, 8), 0), 4, "B_0 D_1 = -437476/51529 not positive"),
        ((Fraction(-12, 5), Fraction(2, 5), Fraction(-17, 3)), 5, "B_1 denominator vanishes"),
    ])
    def test_build_guards(self, mus, N, message):
        with pytest.raises(BILabError, match=f"^{message}$"):
            build_tridiag_rep(RacahParams(*map(Fraction, mus), N))

    def test_truncation_holds_identically(self):
        # mu = (-1)^N mu4 zeroes B_N wherever B_N and D_N have nonzero
        # denominators, mu_i <= -1/2 included; the build has no B_N guard.
        rng, below, checked = random.Random(28), 0, 0
        while checked < 2000:
            mus = [Fraction(rng.randint(-30, 30), rng.randint(1, 8)) for _ in range(3)]
            RP = RacahParams(*mus, rng.randint(0, 12))
            if 0 in (RP.N + 1 + RP.mu1 + RP.mu2, RP.N + RP.mu1 + RP.mu2):
                continue
            assert bk_dk(RP, RP.N)[0] == 0, RP
            below += min(mus) <= Fraction(-1, 2)
            checked += 1
        assert below > 1000


def shift_omega(monkeypatch, i, by=1):
    """Mutant: omega_(i+1) + by wherever RacahParams.omegas is read."""
    orig = vars(RacahParams)["omegas"]

    def shifted(RP):
        om = list(orig.__get__(RP, RacahParams))
        om[i] += by
        return tuple(om)
    monkeypatch.setattr(RacahParams, "omegas", property(shifted))


class TestRepresentationCheckCanFail:
    # Each mutant breaks one input of exactly one recorded relation.  A
    # shift by 1/997, a denominator of no band entry, reaches the integer
    # check only through the common denominator L of the scaled constants.
    @pytest.mark.parametrize("shift", [1, Fraction(1, 997)], ids=["1", "1/997"])
    @pytest.mark.parametrize("N", range(4))
    @pytest.mark.parametrize("mutant, failed", [
        ("omega3", "{K1,K2} = K3 + omega3"),
        ("omega1", "{K2,K3} = K1 + omega1"),
        ("casimir", "K1^2 + K2^2 + K3^2 = casimir"),
    ])
    def test_mutant_fails_one_entry(self, monkeypatch, N, mutant, failed, shift):
        RP = RacahParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), N)
        if mutant.startswith("omega"):
            shift_omega(monkeypatch, {"omega1": 0, "omega3": 2}[mutant], shift)
        rep = build_tridiag_rep(RP)
        if mutant == "casimir":
            rep = dataclasses.replace(rep, casimir=rep.casimir + shift)
        report = representation_check(rep)
        assert report.checked == 3
        assert [(e.check, e.index) for e in report.failures] == [(failed, N)]

    @pytest.mark.parametrize("N", range(1, 4))
    @pytest.mark.parametrize("above", [False, True])
    def test_shifted_k2_offdiagonal_fails(self, N, above):
        RP = RacahParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), N)
        rep = build_tridiag_rep(RP)
        K2 = list(rep.K2)
        i, j = (0, 1) if above else (N, N - 1)  # entry (i, j): row i of column j
        K2[j] = dict(K2[j])
        K2[j][i] += Fraction(1, 3)
        report = representation_check(dataclasses.replace(rep, K2=tuple(K2)))
        assert report.checked == 3 and not report.passed
        assert representation_check(rep).passed

    def test_omega2_mutant_exits_1_without_error(self, monkeypatch, capsys):
        # A failed relation is a verification failure (exit 1), not invalid
        # input: the table is printed unchanged and nothing goes to stderr.
        argv = ["racah", "--mu", "1/4,1/3,1/2", "--N", "3", "--format", "csv"]
        assert main(argv) == 0
        table = capsys.readouterr().out
        shift_omega(monkeypatch, 1)
        assert main(argv) == EXIT_VERIFY_FAILED
        assert capsys.readouterr() == (table, "")

    def test_omega2_mutant_keeps_the_tuple_checks(self, monkeypatch):
        shift_omega(monkeypatch, 1)
        report = suite_racah(seed=DEFAULT_SEED, tuples=1)
        assert [(e.check, e.index, e.ok) for e in report.entries] == [
            ("exact tridiagonal representation", 0, False),
            ("spectra", 0, True),
            ("identifications", 0, True),
        ]
        assert "first failed: {K1,K2} = K3 + omega3 @ " in report.entries[0].detail

    def test_omega2_mutant_fails_verify(self, monkeypatch, capsys):
        shift_omega(monkeypatch, 1)
        argv = ["verify", "--scope", "racah", "--tuples", "1", "--format", "json"]
        assert main(argv) == EXIT_VERIFY_FAILED
        out, err = capsys.readouterr()
        (entry,) = json.loads(out)["entries"]
        assert err == ""
        assert entry["detail"].startswith(
            "racah suite (1 tuples, N <= 8): FAIL (3 checks, 1 failed); "
            "first failed: exact tridiagonal representation @ 0: ")


def naive_mul(a, b):
    """Triple-loop a @ b, of ints or of Fractions."""
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]


def random_banded(rng, n, band):
    """n x n ints, zero outside |i - j| <= band; about a third of the band
    is an explicit 0, and one row and one column (or none, when the drawn
    index is n) are entirely zero."""
    zero_row, zero_col = rng.randrange(n + 1), rng.randrange(n + 1)
    return [[rng.randint(-99, 99)
             if abs(i - j) <= band and rng.random() > 0.3
             and i != zero_row and j != zero_col else 0
             for j in range(n)] for i in range(n)]


def int_op(a):
    """The integer LinOp of the dense int rows a: columns of its nonzero
    entries over den 1."""
    n = len(a)
    return LinOp.real([{i: a[i][j] for i in range(n) if a[i][j]} for j in range(n)], 1)


class TestMatMul:
    # mat_mul takes and returns integer LinOps; the canonical form of its
    # result (den 1, no stored zero) is what == compares.
    @pytest.mark.parametrize("band", [0, 1, 2, 8], ids=[
        "diagonal", "tridiagonal", "pentadiagonal", "dense"])
    @pytest.mark.parametrize("n", range(9))
    def test_against_triple_loop(self, n, band):
        rng = random.Random(100 * n + band)
        for other in (0, 1, 2, 8):
            a, b = random_banded(rng, n, band), random_banded(rng, n, other)
            oa, ob = int_op(a), int_op(b)
            copies = [[dict(c) for c in op.re] for op in (oa, ob)]
            for (x, ox), (y, oy) in (((a, oa), (b, ob)), ((b, ob), (a, oa))):
                got = mat_mul(ox, oy)
                assert got == int_op(naive_mul(x, y))
                assert got.den == 1 and not any(got.im)
                assert all(type(v) is int and v for col in got.re for v in col.values())
            assert [list(op.re) for op in (oa, ob)] == copies

    def test_zero_operand(self):
        z = int_op([[0] * 3 for _ in range(3)])
        a = int_op(random_banded(random.Random(1), 3, 2))
        assert mat_mul(z, a) == mat_mul(a, z) == z


OVERLAP_CASES = [
    RacahParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), N)
    for N in range(6)
] + [random_racah_params(random.Random(seed), 10) for seed in range(6)]


def anticomm_k1_k3_minus_omega2(rep):
    """Oracle: {K1,K3} - omega2 from dense Fraction triple loops, as the
    columns of its nonzero entries."""
    n, om2 = rep.params.N + 1, rep.params.omegas[1]
    k1, k3 = ([[K[j].get(i, 0) for j in range(n)] for i in range(n)]
              for K in (rep.K1, rep.K3))
    p, q = naive_mul(k1, k3), naive_mul(k3, k1)
    return [{i: x for i in range(n)
             if (x := p[i][j] + q[i][j] - (om2 if i == j else 0))} for j in range(n)]


_K2_RNG = random.Random(22)


@pytest.mark.parametrize("RP", OVERLAP_CASES + [
    random_racah_params(_K2_RNG, 12) for _ in range(10)])
def test_k2_from_band_equals_anticommutator(RP):
    rep = build_tridiag_rep(RP)
    assert [{i: x for i, x in col.items() if x} for col in rep.K2] \
        == anticomm_k1_k3_minus_omega2(rep)
    assert all(type(x) is Fraction for col in rep.K2 for x in col.values())


@pytest.mark.parametrize("N", [24, 200])
def test_columns_hold_only_the_band(N):
    # O(N) stored entries per matrix, not (N+1)^2; K3 is diagonal.
    rep = build_tridiag_rep(
        RacahParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), N))
    for K in (rep.K1, rep.K2, rep.K3):
        assert len(K) == N + 1
        assert all(j in col and col.keys() <= {j - 1, j, j + 1}
                   for j, col in enumerate(K))
    assert all(len(col) <= 3 for K in (rep.K1, rep.K2) for col in K)
    assert all(len(col) == 1 for col in rep.K3)


def test_representation_check_products(monkeypatch):
    # Every product of the check is one LinOp product through mat_mul, 7 in
    # all: the count perfbench reads as racah.mat_mul.calls.
    import bi_lab.racah as racah

    rep = build_tridiag_rep(R1)
    products, operands = [0], []

    def counted_matmul(a, b, _orig=LinOp.__matmul__):
        products[0] += 1
        return _orig(a, b)

    def counted(a, b, _orig=racah.mat_mul):
        operands.append((type(a), type(b)))
        return _orig(a, b)
    monkeypatch.setattr(LinOp, "__matmul__", counted_matmul)
    monkeypatch.setattr(racah, "mat_mul", counted)
    assert representation_check(rep).passed
    assert operands == [(LinOp, LinOp)] * 7
    assert products[0] == 7


class TestOverlaps:
    # N <= 5, the table sizes 11 and 24, and random tuples at N = 10.
    @pytest.mark.parametrize("RP", OVERLAP_CASES + [
        RacahParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), N)
        for N in (11, 24)])
    def test_overlaps_match_bi_polynomials(self, RP):
        rep = build_tridiag_rep(RP)
        P = RP.identifications()
        grid = [grid_point(P, s) for s in range(RP.N + 1)]
        d_prod = [Fraction(1)]
        for d in rep.D[1:]:
            d_prod.append(d_prod[-1] * d)
        polys = bi_recurrence(recurrence_steps(P, coeffs_of(rep)[:RP.N]))
        assert racah_overlaps(rep) == [
            [2**k * poly_eval(b, x) / d_prod[k] for k, b in enumerate(polys)]
            for x in grid
        ]

    @pytest.mark.parametrize("RP", OVERLAP_CASES)
    def test_rows_are_exact_k1_eigenvectors(self, RP):
        rep = build_tridiag_rep(RP)
        n = RP.N + 1
        for s, v in enumerate(racah_overlaps(rep)):
            lam = spectrum_value(s, RP.mu2 + RP.mu3)
            assert v[0] == 1
            # (K1 v)_i = sum_j K1_ij v_j, with K1_ij in row i of column j
            assert [sum(rep.K1[j].get(i, 0) * v[j] for j in range(n)) for i in range(n)] \
                == [lam * x for x in v]

    @pytest.mark.parametrize("RP", OVERLAP_CASES)
    def test_float_oracle(self, RP):
        # eigh of the symmetric form: eigenvalues match lambda_s to 1e-10 and
        # the normalized exact rows match its eigenvectors up to sign.
        rep = build_tridiag_rep(RP)
        mat, scale = k1_symmetric(rep)
        vals, vecs = np.linalg.eigh(mat)
        used = set()
        for s, v in enumerate(racah_overlaps(rep)):
            lam = float(spectrum_value(s, RP.mu2 + RP.mu3))
            j = int(np.argmin(np.abs(vals - lam)))
            assert abs(vals[j] - lam) < 1e-10 and j not in used
            used.add(j)
            w = np.array([float(x) for x in v]) / scale
            w /= np.linalg.norm(w)
            assert min(np.max(np.abs(w - vecs[:, j])),
                       np.max(np.abs(w + vecs[:, j]))) < 1e-9


def shift_k1_lambda0(monkeypatch, cs):
    """Mutant: lambda_0 moved by 1/2 where racah reads spectrum_value with
    c in ``cs``, the values mu2 + mu3 of the K1 spectrum."""
    import bi_lab.racah as racah

    def shifted(s, c, _orig=racah.spectrum_value):
        return _orig(s, c) + (Fraction(1, 2) if s == 0 and c in cs else 0)
    monkeypatch.setattr(racah, "spectrum_value", shifted)


SPECTRUM_NAMES = ("K1 continuant = 2^k BI recurrence", "K1 spectrum")


class TestSpectrumCheckCanFail:
    @pytest.mark.parametrize("N", range(6))
    def test_entries(self, N):
        RP = RacahParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), N)
        rep = build_tridiag_rep(RP)
        report = k1_spectrum_check(rep, steps_of(rep))
        assert report.checked == 2 * (N + 1)
        assert [(e.check, e.index) for e in report.entries] == [
            (name, k) for name in SPECTRUM_NAMES for k in range(N + 1)]

    def test_shifted_lambda0(self, monkeypatch):
        assert R1.mu1 + R1.mu2 != R1.mu2 + R1.mu3  # the K3 diagonal is kept
        rep = build_tridiag_rep(R1)
        shift_k1_lambda0(monkeypatch, {R1.mu2 + R1.mu3})
        report = k1_spectrum_check(rep, steps_of(rep))
        assert [(e.check, e.index) for e in report.failures] == [("K1 spectrum", 0)]

    def test_shifted_lambda0_fails_verify(self, monkeypatch, capsys):
        rng = random.Random(DEFAULT_SEED)  # the two tuples suite_racah draws
        tuples = [random_racah_params(rng, 8) for _ in range(2)]
        cs = {RP.mu2 + RP.mu3 for RP in tuples}
        assert not cs & {RP.mu1 + RP.mu2 for RP in tuples}
        shift_k1_lambda0(monkeypatch, cs)
        assert main(["verify", "--scope", "racah", "--tuples", "2"]) == EXIT_VERIFY_FAILED
        out = capsys.readouterr().out
        assert "[FAIL] racah suite" in out and "first failed: spectra @ 0" in out

    @pytest.mark.parametrize("k", [1, 2])
    def test_doubled_d(self, k):
        rep = build_tridiag_rep(R1)
        D = list(rep.D)
        D[k] *= 2
        report = k1_spectrum_check(dataclasses.replace(rep, D=tuple(D)), steps_of(rep))
        assert failed_checks(report) == set(SPECTRUM_NAMES)
        assert [e.index for e in report.failures
                if e.check.startswith("K1 continuant")] == [k]

    @pytest.mark.parametrize("N", range(4))
    def test_shifted_last_diagonal(self, N):
        # K1_NN + 1/3 adds (1/3) q_N(lambda_s) to each u_(N+1), and q_N has
        # no root on the spectrum, so every spectrum entry fails.
        RP = RacahParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), N)
        rep = build_tridiag_rep(RP)
        K1 = list(rep.K1)
        K1[N] = dict(K1[N])
        K1[N][N] += Fraction(1, 3)
        report = k1_spectrum_check(dataclasses.replace(rep, K1=tuple(K1)),
                                   steps_of(rep))
        assert [(e.check, e.index) for e in report.failures] == [
            (SPECTRUM_NAMES[0], N), *((SPECTRUM_NAMES[1], s) for s in range(N + 1))]


class TestRowScaledContinuant:
    def test_integers_stay_small(self):
        # Each row is cleared by its own r_k; one lcm L for every row would
        # put L^k into w_k, 3,480 bits at this tuple.
        RP = RacahParams.make(Fraction(3, 2), Fraction(6, 5), 1, 24)
        rows, eprod = build_tridiag_rep(RP).continuant
        ints = [*eprod, *(x for w in rows for x in w)]
        assert max(abs(x).bit_length() for x in ints) < 1000

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 24])
    def test_shifted_b_fails_every_spectrum_entry(self, N):
        # B_k + 1/997: a denominator that reaches the integers of row k + 1
        # only through its row scale r_(k+1).
        RP = RacahParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), N)
        rep = build_tridiag_rep(RP)
        for k in range(N):
            B = list(rep.B)
            B[k] += Fraction(1, 997)
            report = k1_spectrum_check(dataclasses.replace(rep, B=tuple(B)),
                                       steps_of(rep))
            assert [(e.check, e.index) for e in report.failures] == [
                (SPECTRUM_NAMES[0], k + 1),
                *((SPECTRUM_NAMES[1], s) for s in range(N + 1))]


def test_one_rep_build_per_tuple(monkeypatch):
    import bi_lab.racah as racah
    import bi_lab.suites as suites

    calls = [0]
    def counted(RP, _orig=racah.build_tridiag_rep):
        calls[0] += 1
        return _orig(RP)
    for mod in (racah, suites):
        monkeypatch.setattr(mod, "build_tridiag_rep", counted)
    for _ in range(2):  # a second identical call does the same work again
        calls[0] = 0
        assert suite_racah(seed=1, tuples=3).passed
        assert calls[0] == 3


def float_tensor_slice(RP, m):
    """Float reference: Q12, Q23 and Q4 in the unitary gauge
    J+|n-1> = rho_n |n>, J-|n> = rho_n |n-1>, assembled as Kronecker
    products of per-factor matrices truncated at m+3 (so no ladder state
    of the slice falls off the edge) and sliced to n1 + n2 + n3 = m."""
    dim1 = m + 3

    def factor_ops(mu):
        n = np.arange(dim1, dtype=float)
        sign = (-1.0) ** np.arange(dim1)
        rho = np.sqrt(n + mu * (1.0 - sign))
        jp = np.diag(rho[1:], -1)
        return np.diag(n + mu + 0.5), jp, jp.T, np.diag(sign)

    def kron3(a, b, c):
        return np.kron(np.kron(a, b), c)

    mus = [float(x) for x in (RP.mu1, RP.mu2, RP.mu3)]
    (j01, jp1, jm1, r1), (j02, jp2, jm2, r2), (j03, jp3, jm3, r3) = (
        factor_ops(mu) for mu in mus)
    eye, big_eye = np.eye(dim1), np.eye(dim1**3)

    def casimir(jp, jm, j0, r):
        return (jp @ jm - j0 + 0.5 * big_eye) @ r

    q12 = casimir(kron3(jp1, r2, eye) + kron3(eye, jp2, eye),
                  kron3(jm1, r2, eye) + kron3(eye, jm2, eye),
                  kron3(j01, eye, eye) + kron3(eye, j02, eye), kron3(r1, r2, eye))
    q23 = casimir(kron3(eye, jp2, r3) + kron3(eye, eye, jp3),
                  kron3(eye, jm2, r3) + kron3(eye, eye, jm3),
                  kron3(eye, j02, eye) + kron3(eye, eye, j03), kron3(eye, r2, r3))
    q4 = casimir(kron3(jp1, r2, r3) + kron3(eye, jp2, r3) + kron3(eye, eye, jp3),
                 kron3(jm1, r2, r3) + kron3(eye, jm2, r3) + kron3(eye, eye, jm3),
                 kron3(j01, eye, eye) + kron3(eye, j02, eye) + kron3(eye, eye, j03),
                 kron3(r1, r2, r3))
    idx = [n1 * dim1 * dim1 + n2 * dim1 + (m - n1 - n2)
           for n1 in range(m + 1) for n2 in range(m + 1 - n1)]
    ix = np.ix_(idx, idx)
    return q12[ix], q23[ix], q4[ix]


class TestTensorOracle:
    @pytest.mark.parametrize("N", range(4))
    def test_oracle_on_slice(self, N):
        RP = RacahParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), N)
        report = tensor_oracle(RP, N)
        assert report.passed, report.summary()

    def test_oracle_other_params(self):
        RP = RacahParams.make(Fraction(3, 5), Fraction(1, 7), Fraction(2), 2)
        assert tensor_oracle(RP, 2).passed

    @pytest.mark.parametrize("mus", [
        (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)),
        (Fraction(7, 2), Fraction(11, 6), Fraction(5, 3)),
    ])
    @pytest.mark.parametrize("N", range(4))
    def test_float_reference_spectra(self, N, mus):
        # The exact report certifies that Q4 has q_j = (-1)^(j+1)(j + mu1 +
        # mu2 + mu3 + 1) with multiplicity j + 1 (j <= N), and that on each
        # of those eigenspaces -Q12 takes only the values (-1)^s (s + mu1 +
        # mu2 + 1/2), s <= j, each once in the (j+1)-dimensional BI
        # representation there; so -Q12 has the value of s with
        # multiplicity N - s + 1, and -Q23 likewise with mu2 + mu3.
        # eigvalsh of the float reference agrees to 1e-9.
        RP = RacahParams.make(*mus, N)
        assert tensor_oracle(RP, N).passed
        mu1, mu2, mu3 = mus
        want = {
            "Q12": [-spectrum_value(s, mu1 + mu2)
                    for j in range(N + 1) for s in range(j + 1)],
            "Q23": [-spectrum_value(s, mu2 + mu3)
                    for j in range(N + 1) for s in range(j + 1)],
            "Q4": [-spectrum_value(j, mu1 + mu2 + mu3 + Fraction(1, 2))
                   for j in range(N + 1) for _ in range(j + 1)],
        }
        for name, mat in zip(want, float_tensor_slice(RP, N)):
            assert np.max(np.abs(mat - mat.T)) < 1e-12
            got = np.linalg.eigvalsh(mat)
            assert np.max(np.abs(got - np.sort([float(x) for x in want[name]]))) \
                < 1e-9, name


@pytest.fixture
def shifted_rho(monkeypatch):
    """Mutant: rho_n^2 + 1 at odd n in the second factor (mu = mu2 of the
    parameter tuples below, which have distinct mu_i), where the tensor
    slice reads rho_squared."""
    import bi_lab.racah as racah

    def shifted(M, n, _orig=racah.rho_squared):
        return _orig(M, n) + (1 if M.mu == Fraction(1, 3) and n % 2 else 0)
    monkeypatch.setattr(racah, "rho_squared", shifted)


class TestTensorChecksCanFail:
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_shifted_rho_fails_every_entry(self, N, shifted_rho):
        RP = RacahParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), N)
        for report in (tensor_oracle(RP, N), central_extension_check(RP, N)):
            assert report.entries
            assert report.failures == report.entries, [
                (e.check, e.index) for e in report.entries if e.ok]


class TestCentralExtension:
    @pytest.mark.parametrize("N", range(4))
    def test_both_relations_hold(self, N):
        RP = RacahParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), N)
        report = central_extension_check(RP, N)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("N", range(4))
    def test_both_relations_fail_with_perturbed_q(self, N, monkeypatch):
        import bi_lab.racah as racah

        RP = RacahParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), N)
        names = ["{C1,C2} = C3 - 2 mu3 Q + 2 mu1 mu2",
                 "{C2,C3} = C1 - 2 mu1 Q + 2 mu2 mu3"]
        report = central_extension_check(RP, N)
        assert [e.check for e in report.entries] == names
        orig = racah.tensor_slice

        def perturbed(RP, m):
            ts = orig(RP, m)
            return dataclasses.replace(ts, Q4=ts.Q4.scale(2))

        monkeypatch.setattr(racah, "tensor_slice", perturbed)
        report = central_extension_check(RP, N)
        assert [e.check for e in report.entries] == names
        assert not any(e.ok for e in report.entries)
