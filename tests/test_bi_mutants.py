"""Mutation tables of the ``bi``, ``sl1``, ``racah`` and ``dirac`` scopes:
every check that ``verify --scope <scope>`` records, at any level of its
report, fails under some monkeypatched primitive.  A recorded check with
no mutant fails the table."""

import inspect
from fractions import Fraction

import pytest

import bi_lab.bi_poly as bp
import bi_lab.dunkl_dirac as dd
import bi_lab.racah as racah
import bi_lab.sl1 as sl1
import bi_lab.suites as suites
from bi_lab.bi_operator import BIParams
from bi_lab.exact import HALF
from bi_lab.linop import LinOp, lincomb
from bi_lab.report import VerificationReport


def shifted_omega(attr):
    """omega_i + 1 in place of omega_i, wherever it is read."""
    def patch(monkeypatch):
        orig = getattr(BIParams, attr)
        monkeypatch.setattr(BIParams, attr, property(lambda P: orig.func(P) + 1))
    return patch


def perturbed_k3(monkeypatch):
    """K3 + I in place of K3 in the generator matrices of the suites."""
    def mats(P, maxdeg, _orig=suites.bi_matrices):
        K1, K2, K3 = _orig(P, maxdeg)
        return K1, K2, lincomb((1, K3), (1, LinOp.identity(maxdeg + 3)))
    monkeypatch.setattr(suites, "bi_matrices", mats)


def bumped_int_mul(monkeypatch):
    """The integer products of the 4F3 sums gain 1 in their constant term."""
    def int_mul(a, b, _orig=bp.int_mul):
        out = _orig(a, b)
        out[0] += 1
        return out
    monkeypatch.setattr(bp, "int_mul", int_mul)


def shifted_eigenvalue(monkeypatch):
    """lambda_2 + 1 in place of lambda_2."""
    monkeypatch.setattr(bp, "eigenvalue",
                        lambda P, n, _orig=bp.eigenvalue: _orig(P, n) + (n == 2))


def flipped_ladder_coeff(which):
    """The sign of alpha (which 0) or beta (which 1) flipped at n = 3."""
    def patch(monkeypatch):
        def coeffs(P, n, _orig=bp.ladder_coeffs):
            out = list(_orig(P, n))
            if n == 3:
                out[which] = -out[which]
            return tuple(out)
        monkeypatch.setattr(bp, "ladder_coeffs", coeffs)
    return patch


def source_mutant(monkeypatch, module, name, old, new):
    """module.name recompiled with its source text old replaced by new."""
    source = inspect.getsource(getattr(module, name))
    mutant = source.replace(old, new)
    assert mutant != source
    namespace = dict(vars(module))
    exec(mutant, namespace)
    monkeypatch.setattr(module, name, namespace[name])


def omega1_in_second_form(monkeypatch):
    """omega1 in place of omega3 in V = 2 K2 (K1^2 - 1/4) - omega3 K1 - omega2/2."""
    source_mutant(monkeypatch, bp, "ladder_operators",
                  "(-P.omega3, k1)", "(-P.omega1, k1)")


def bumped_odd_rho(monkeypatch):
    """rho_n^2 + 1 in place of rho_n^2 at odd n: the odd entries of D are
    those of nu + 1/2."""
    monkeypatch.setattr(sl1, "dunkl_matrix",
                        lambda nu, n, _orig=sl1.dunkl_matrix: _orig(nu + HALF, n))


def unit_half(monkeypatch):
    """1 in place of every 1/2 of the module checks: J0 |n> gains 1/2, which
    Q and the osp(1|2) Casimir subtract again, so only {J+,J-} = 2 J0 sees it."""
    monkeypatch.setattr(sl1, "HALF", 1)


def halved_dunkl_odd_factor(monkeypatch):
    """nu in place of the factor 2 nu of D on the odd monomials."""
    source_mutant(monkeypatch, sl1, "dunkl_matrix",
                  "2 * p * (j % 2)", "p * (j % 2)")


def flipped_j1_hop(monkeypatch):
    """L J1 = -(L x2 D3 - L x3 D2) in place of -(L x2 D3 + L x3 D2)."""
    source_mutant(monkeypatch, dd, "symmetry_generators",
                  "(-1, hop(1, 2)), (-1, hop(2, 1))", "(-1, hop(1, 2)), (1, hop(2, 1))")


def flipped_gamma_term(axis):
    """-m_axis R_axis in place of m_axis R_axis in L Gamma."""
    def patch(monkeypatch):
        source_mutant(monkeypatch, dd, "gamma_apply", "(v[i], ",
                      f"(v[i] * (-1 if i == {axis} else 1), ")
    return patch


def flipped_sigma2(monkeypatch):
    """-sigma_2 in place of sigma_2, on the spinor slices and in PAULI."""
    monkeypatch.setattr(dd, "_sigma", lambda i, n, _orig=dd._sigma:
                        lincomb((-1, _orig(i, n))) if i == 2 else _orig(i, n))
    monkeypatch.setitem(dd.PAULI, 2, lincomb((-1, dd.PAULI[2])))


def sigma3_for_sigma1(monkeypatch):
    """sigma_3 in place of sigma_1 in PAULI."""
    monkeypatch.setitem(dd.PAULI, 1, dd.PAULI[3])


def doubled_reflection(axis):
    """-2 in place of the first -1 on the diagonal of R_axis, on every
    spinor slice (the monomials of degree 0 have no -1)."""
    def patch(monkeypatch):
        def dunkl_slice(L, ms, degree, _orig=dd.dunkl_slice):
            exps, hop, R = _orig(L, ms, degree)
            cols = [dict(col) for col in R[axis - 1].nums]
            for j, col in enumerate(cols):
                if col[j] == -1:
                    col[j] = -2
                    break
            return exps, hop, [LinOp.real(cols, 1) if a == axis - 1 else r
                               for a, r in enumerate(R)]
        monkeypatch.setattr(dd, "dunkl_slice", dunkl_slice)
    return patch


def shifted_racah_omega(i):
    """omega_i + 1 in place of omega_i (i = 1 or 3) of the Racah parameters;
    omega_2, which the build writes into K2, is kept."""
    def patch(monkeypatch):
        orig = racah.RacahParams.omegas.func
        monkeypatch.setattr(racah.RacahParams, "omegas", property(
            lambda RP: tuple(w + (k == i) for k, w in enumerate(orig(RP), start=1))))
    return patch


def bumped_casimir_value(monkeypatch, by=1):
    """The Casimir value of the Racah parameters plus by."""
    orig = racah.RacahParams.casimir.func
    monkeypatch.setattr(racah.RacahParams, "casimir", property(lambda RP: orig(RP) + by))


def shifted_bk_dk(which):
    """B_1 (which 0) or D_1 (which 1) plus 1/997 in the Racah build."""
    def patch(monkeypatch):
        def bk_dk(RP, k, _orig=racah.bk_dk):
            out = list(_orig(RP, k))
            if k == 1:
                out[which] += Fraction(1, 997)
            return tuple(out)
        monkeypatch.setattr(racah, "bk_dk", bk_dk)
    return patch


def shifted_continuant_lambda(monkeypatch):
    """lambda_2 + 1 in place of lambda_2 in the continuant of K1."""
    source_mutant(monkeypatch, racah, "_continuant",
                  "spectrum_value(s, c)", "spectrum_value(s, c) + (s == 2)")


CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))

# Per scope: recorded check name (a prefix where the name carries a
# value) -> mutant.
MUTANTS = {"bi": {
    "bi suite (": shifted_omega("omega1"),
    "BI relations": shifted_omega("omega1"),
    "{K2,K3} = K1 + omega1": shifted_omega("omega1"),
    "{K3,K1} = K2 + omega2": shifted_omega("omega2"),
    "Casimir scalar": perturbed_k3,
    "K1^2 + K2^2 + K3^2 = ": perturbed_k3,
    "polynomial triple-oracle suite (": bumped_int_mul,
    "recurrence = hypergeometric": bumped_int_mul,
    "recurrence = operator eigensolve": shifted_eigenvalue,
    "ladder suite (": flipped_ladder_coeff(0),
    "ladders and V": flipped_ladder_coeff(0),
    "{K1,K+} = K+": shifted_omega("omega2"),
    "{K1,K-} = -K-": shifted_omega("omega2"),
    "K+ B_n closed form": flipped_ladder_coeff(0),
    "K- B_n closed form": flipped_ladder_coeff(1),
    "V first form = second form": omega1_in_second_form,
    "V B_n two-diagonal": shifted_eigenvalue,
}, "sl1": {
    "sl_(-1)(2) suite (": halved_dunkl_odd_factor,
    "sl_{-1}(2) module (": bumped_odd_rho,
    "{J+,J-} = 2 J0": unit_half,
    "Q = -eps*mu": bumped_odd_rho,
    "[J-,J+] = 1 - 2QR": bumped_odd_rho,
    "osp(1|2) Casimir (": bumped_odd_rho,
    "C_osp = mu^2": bumped_odd_rho,
    "Dunkl commutator (": halved_dunkl_odd_factor,
    "[D,x] = 1 + 2 nu R": halved_dunkl_odd_factor,
}, "racah": {
    "racah suite (": shifted_racah_omega(3),
    "exact tridiagonal representation": shifted_racah_omega(3),
    "{K1,K2} = K3 + omega3": shifted_racah_omega(3),
    "{K2,K3} = K1 + omega1": shifted_racah_omega(1),
    "K1^2 + K2^2 + K3^2 = casimir": bumped_casimir_value,
    "spectra": shifted_continuant_lambda,
    "K1 continuant = 2^k BI recurrence": shifted_bk_dk(1),
    "K1 spectrum": shifted_continuant_lambda,
    "identifications": shifted_bk_dk(0),
    "B_k = 2 A_k": shifted_bk_dk(0),
    "D_k = 2 C_k": shifted_bk_dk(1),
}, "dirac": {
    "dunkl-dirac suite (": flipped_j1_hop,
    "Pauli layer": sigma3_for_sigma1,
    "sigma_i sigma_j = i eps sigma_k + delta": flipped_sigma2,
    "{sigma_i,sigma_j} = 2 delta": sigma3_for_sigma1,
    "Dunkl angular-momentum commutators": flipped_j1_hop,
    **{f"[J{i},J{j}] = i J{k}(1 + 2 mu{k} R{k})": flipped_j1_hop for i, j, k in CYCLIC},
    "Gamma squared identity": flipped_gamma_term(2),
    "Gamma^2 + Gamma = J^2 - X + c": flipped_gamma_term(2),
    "Dunkl-Dirac symmetry algebra": flipped_gamma_term(2),
    # m_k R_k commutes with M_k, so the flipped term is another axis's.
    **{f"[Gamma, M{i}] = 0": flipped_gamma_term(k) for i, j, k in CYCLIC},
    **{f"[Gamma, X{i}] = 0": doubled_reflection(i) for i in (1, 2, 3)},
    **{f"[M{i}, X{i}] = 0": doubled_reflection(i) for i in (1, 2, 3)},
    **{f"{{M{i}, X{j}}} = 0": doubled_reflection(j)
       for i in (1, 2, 3) for j in (1, 2, 3) if i != j},
    "Y = -i X1 X2 X3 = R1 R2 R3": flipped_sigma2,
    "Y^2 = 1": doubled_reflection(1),
    "[Y, Gamma] = 0": doubled_reflection(1),
    **{f"[Y, M{i}] = 0": doubled_reflection(1) for i in (1, 2, 3)},
    **{f"[M{i}, M{j}] relation": flipped_j1_hop for i, j, k in CYCLIC},
    **{f"{{K{i}, K{j}}} = K{k} + central": flipped_j1_hop for i, j, k in CYCLIC},
}}

# The sizes of the one small run per scope (seed 1).
RUNS = {"bi": {"tuples": 1, "maxdeg": 2}, "sl1": {"tuples": 1},
        "racah": {"tuples": 1}, "dirac": {"tuples": 1, "maxdeg": 2}}


def recorded(monkeypatch, scope) -> list[tuple[str, bool]]:
    """(check, pass) of every entry that any report records during one
    small ``verify --scope <scope>`` run."""
    log = []

    def record(self, check, index, ok, detail="", _orig=VerificationReport.record):
        log.append((check, bool(ok)))
        _orig(self, check, index, ok, detail)
    monkeypatch.setattr(VerificationReport, "record", record)
    suites.run_scope(scope, seed=1, **RUNS[scope])
    return log


def mutant_key(scope: str, name: str) -> str:
    keys = [key for key in MUTANTS[scope] if name.startswith(key)]
    assert len(keys) == 1, f"recorded check {name!r} matches mutants {keys}"
    return keys[0]


@pytest.mark.parametrize("scope", list(MUTANTS))
def test_every_recorded_check_has_one_mutant(monkeypatch, scope):
    log = recorded(monkeypatch, scope)
    assert log and all(ok for _, ok in log)
    keys = {mutant_key(scope, name) for name, _ in log}
    assert keys == set(MUTANTS[scope]), f"stale mutants: {set(MUTANTS[scope]) - keys}"


@pytest.mark.parametrize("scope, key",
                         [(scope, key) for scope in MUTANTS for key in MUTANTS[scope]],
                         ids=[key for table in MUTANTS.values() for key in table])
def test_mutant_fails_its_check(monkeypatch, scope, key):
    MUTANTS[scope][key](monkeypatch)
    failed = {name for name, ok in recorded(monkeypatch, scope) if not ok}
    assert any(name.startswith(key) for name in failed), failed
