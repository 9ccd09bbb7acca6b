"""Seeded randomized verification suites.

These back the ``verify`` CLI subcommand and the acceptance tests.  Every
suite takes an explicit seed; parameter tuples are drawn from small
rational ranges and rejected (with retry) when they trip a degeneracy
guard, so a fixed seed yields a fixed, reproducible tuple list.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .bi_operator import BIParams, casimir_scalar, check_bi_relations
from .bi_poly import (
    bi_from_operator,
    bi_hypergeometric,
    bi_recurrence,
    recurrence_coeffs,
)
from .dunkl_dirac import (
    DiracParams,
    gamma_square_identity,
    jj_commutator_check,
    pauli_layer_check,
    symmetry_check,
)
from .errors import BILabError
from .racah import (
    RacahParams,
    bk_dk,
    build_tridiag_rep,
    k1_spectrum_check,
    racah_overlaps,
    tensor_oracle,
)
from .report import VerificationReport
from .sl1 import (
    ModuleParams,
    dunkl_commutator_check,
    module_bilinear_check,
    osp_casimir_check,
)

DEFAULT_SEED = 20140901  # fixed and documented for reproducibility


def random_bi_params(rng: random.Random) -> BIParams:
    """Unrestricted rational parameter tuple (relations need no guards)."""
    def draw() -> Fraction:
        return Fraction(rng.randint(-8, 8), rng.randint(1, 8))

    return BIParams(draw(), draw(), draw(), draw())


def random_bi_params_regular(rng: random.Random, nmax: int) -> BIParams:
    """Tuple passing every degeneracy guard up to degree nmax + 1."""
    while True:
        P = random_bi_params(rng)
        try:
            for n in range(nmax + 2):
                recurrence_coeffs(P, n)
            bi_hypergeometric(P, nmax)
            bi_from_operator(P, nmax)
        except BILabError:
            continue
        return P


def random_racah_params(rng: random.Random, max_n: int) -> RacahParams:
    """Admissible tuple: positive mu_i guarantee unitarity of the rep."""
    def draw() -> Fraction:
        return Fraction(rng.randint(1, 12), rng.randint(1, 6))

    return RacahParams.make(draw(), draw(), draw(), rng.randint(0, max_n))


def random_dirac_params(rng: random.Random) -> DiracParams:
    def draw() -> Fraction:
        return Fraction(rng.randint(1, 9), rng.randint(1, 6))

    return DiracParams.make(draw(), draw(), draw())


def suite_bi(seed: int = DEFAULT_SEED, tuples: int = 50,
             maxdeg: int = 12) -> VerificationReport:
    """Exact BI relations and Casimir for seeded random tuples."""
    rng = random.Random(seed)
    report = VerificationReport(f"bi suite ({tuples} tuples, maxdeg {maxdeg})")
    for t in range(tuples):
        P = random_bi_params(rng)
        sub = check_bi_relations(P, maxdeg)
        report.record("BI relations", t, sub.passed,
                      "" if sub.passed else sub.summary())
        try:
            casimir_scalar(P, maxdeg)
            report.record("Casimir scalar", t, True)
        except BILabError as exc:
            report.record("Casimir scalar", t, False, str(exc))
    return report


def suite_polynomials(seed: int = DEFAULT_SEED, tuples: int = 20,
                      nmax: int = 10) -> VerificationReport:
    """Triple-route equality of the Bannai-Ito polynomials."""
    rng = random.Random(seed)
    report = VerificationReport(
        f"polynomial triple-oracle suite ({tuples} tuples, n <= {nmax})"
    )
    for t in range(tuples):
        P = random_bi_params_regular(rng, nmax)
        for n in range(nmax + 1):
            rec = bi_recurrence(P, n)
            report.record("recurrence = hypergeometric", (t, n),
                          rec == bi_hypergeometric(P, n))
            report.record("recurrence = operator eigensolve", (t, n),
                          rec == bi_from_operator(P, n))
    return report


def suite_sl1(seed: int = DEFAULT_SEED, tuples: int = 10,
              nmax: int = 12) -> VerificationReport:
    rng = random.Random(seed)
    report = VerificationReport(f"sl_(-1)(2) suite ({tuples} tuples)")
    for t in range(tuples):
        eps = rng.choice([1, -1])
        mu = Fraction(rng.randint(0, 12), rng.randint(1, 6))
        M = ModuleParams.make(eps, mu)
        for sub in (module_bilinear_check(M, nmax), osp_casimir_check(M, nmax)):
            report.record(sub.title, t, sub.passed,
                          "" if sub.passed else sub.summary())
        nu = Fraction(rng.randint(0, 9), rng.randint(1, 6))
        sub = dunkl_commutator_check(nu, nmax)
        report.record(sub.title, t, sub.passed)
    return report


def identification_check(RP: RacahParams) -> VerificationReport:
    """B_k = 2 A_k and D_k = 2 C_k under the parameter identifications."""
    report = VerificationReport("racah/bi coefficient identification")
    P = RP.identifications()
    for k in range(RP.N + 1):
        B, D = bk_dk(RP, k)
        rc = recurrence_coeffs(P, k)
        report.record("B_k = 2 A_k", k, B == 2 * rc.A)
        report.record("D_k = 2 C_k", k, D == 2 * rc.C)
    return report


def suite_racah(seed: int = DEFAULT_SEED, tuples: int = 20,
                max_n: int = 8, with_tensor: bool = False) -> VerificationReport:
    rng = random.Random(seed)
    report = VerificationReport(f"racah suite ({tuples} tuples, N <= {max_n})")
    for t in range(tuples):
        RP = random_racah_params(rng, max_n)
        try:
            rep = build_tridiag_rep(RP)  # relations + Casimir checked on build
            report.record("exact tridiagonal representation", t, True)
        except BILabError as exc:
            report.record("exact tridiagonal representation", t, False, str(exc))
            continue
        sub = k1_spectrum_check(rep, RP)
        report.record("spectra", t, sub.passed,
                      "" if sub.passed else sub.summary())
        sub = identification_check(RP)
        report.record("identifications", t, sub.passed)
        try:
            racah_overlaps(RP)
            report.record("overlaps = BI polynomials", t, True)
        except BILabError as exc:
            report.record("overlaps = BI polynomials", t, False, str(exc))
        if with_tensor and RP.N <= 4:
            sub = tensor_oracle(RP, RP.N)
            report.record("tensor oracle", t, sub.passed,
                          "" if sub.passed else sub.summary())
    return report


def suite_dirac(seed: int = DEFAULT_SEED, tuples: int = 10,
                maxdeg: int = 6) -> VerificationReport:
    rng = random.Random(seed)
    report = VerificationReport(
        f"dunkl-dirac suite ({tuples} tuples, slices <= {maxdeg})"
    )
    sub = pauli_layer_check()
    report.record(sub.title, "-", sub.passed)
    for t in range(tuples):
        DP = random_dirac_params(rng)
        for sub in (
            jj_commutator_check(DP, maxdeg),
            gamma_square_identity(DP, maxdeg),
            symmetry_check(DP, maxdeg),
        ):
            report.record(sub.title, t, sub.passed,
                          "" if sub.passed else sub.summary())
    return report


SCOPES = {
    "bi": (suite_bi, suite_polynomials),
    "sl1": (suite_sl1,),
    "racah": (suite_racah,),
    "dirac": (suite_dirac,),
}


def run_scope(scope: str, seed: int = DEFAULT_SEED, tuples: int | None = None,
              maxdeg: int | None = None) -> VerificationReport:
    """Run one named scope (or 'all') into a merged report.

    ``tuples`` sizes every suite, ``maxdeg`` only suite_bi and suite_dirac;
    None keeps a suite's default.
    """
    runs = [(name, fn) for name in (list(SCOPES) if scope == "all" else [scope])
            for fn in SCOPES[name]]
    degree_suites = (suite_bi, suite_dirac)
    if maxdeg is not None and not any(fn in degree_suites for _, fn in runs):
        raise BILabError(f"--maxdeg does not apply to scope {scope!r}")
    merged = VerificationReport(f"verify scope={scope}")
    for name, fn in runs:
        sizes = {} if tuples is None else {"tuples": tuples}
        if maxdeg is not None and fn in degree_suites:
            sizes["maxdeg"] = maxdeg
        sub = fn(seed=seed, **sizes)
        merged.record(sub.title, name, sub.passed,
                      "" if sub.passed else sub.summary())
        merged.notes.extend(sub.notes)
    return merged
