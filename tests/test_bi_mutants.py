"""Mutation table of the ``bi`` scope: every check that ``verify --scope
bi`` records, at any level of its report, fails under some monkeypatched
primitive.  A recorded check with no mutant fails the table."""

import inspect

import pytest

import bi_lab.bi_poly as bp
import bi_lab.suites as suites
from bi_lab.bi_operator import BIParams
from bi_lab.linop import LinOp
from bi_lab.report import VerificationReport


def shifted_omega(attr):
    """omega_i + 1 in place of omega_i, wherever it is read."""
    def patch(monkeypatch):
        orig = getattr(BIParams, attr)
        monkeypatch.setattr(BIParams, attr, property(lambda P: orig.fget(P) + 1))
    return patch


def perturbed_k3(monkeypatch):
    """K3 + I in place of K3 in the generator matrices of the suites."""
    def mats(P, maxdeg, _orig=suites.bi_matrices):
        K1, K2, K3 = _orig(P, maxdeg)
        return K1, K2, K3 + LinOp.identity(maxdeg + 3)
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


def omega1_in_second_form(monkeypatch):
    """omega1 in place of omega3 in V = 2 K2 (K1^2 - 1/4) - omega3 K1 - omega2/2."""
    source = inspect.getsource(bp.ladder_operators)
    mutant = source.replace("K1.scale(P.omega3)", "K1.scale(P.omega1)")
    assert mutant != source
    namespace = dict(vars(bp))
    exec(mutant, namespace)
    monkeypatch.setattr(bp, "ladder_operators", namespace["ladder_operators"])


# Recorded check name (a prefix where the name carries a value) -> mutant.
MUTANTS = {
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
}


def recorded(monkeypatch) -> list[tuple[str, bool]]:
    """(check, pass) of every entry that any report records during one
    small ``verify --scope bi`` run."""
    log = []

    def record(self, check, index, ok, detail="", _orig=VerificationReport.record):
        log.append((check, bool(ok)))
        _orig(self, check, index, ok, detail)
    monkeypatch.setattr(VerificationReport, "record", record)
    suites.run_scope("bi", seed=1, tuples=1, maxdeg=2)
    return log


def mutant_key(name: str) -> str:
    keys = [key for key in MUTANTS if name.startswith(key)]
    assert len(keys) == 1, f"recorded check {name!r} matches mutants {keys}"
    return keys[0]


def test_every_recorded_check_has_one_mutant(monkeypatch):
    log = recorded(monkeypatch)
    assert log and all(ok for _, ok in log)
    keys = {mutant_key(name) for name, _ in log}
    assert keys == set(MUTANTS), f"stale mutants: {set(MUTANTS) - keys}"


@pytest.mark.parametrize("key", list(MUTANTS))
def test_mutant_fails_its_check(monkeypatch, key):
    MUTANTS[key](monkeypatch)
    failed = {name for name, ok in recorded(monkeypatch) if not ok}
    assert any(name.startswith(key) for name in failed), failed
