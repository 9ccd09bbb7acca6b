"""Seeded randomized verification suites.

These back the ``verify`` CLI subcommand and the acceptance tests.  Every
suite takes an explicit seed; parameter tuples are drawn from small
rational ranges and rejected (with retry) when they trip a degeneracy
guard, so a fixed seed yields a fixed, reproducible tuple list.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .bi_operator import BIParams, bi_matrices, casimir_scalar, check_bi_relations
from .bi_poly import (
    RecurrenceCoeffs,
    bi_from_operator,
    bi_hypergeometric,
    bi_recurrence,
    ladder_check,
    recurrence_coeffs,
    recurrence_steps,
)
from .dunkl_dirac import (
    DiracParams,
    dirac_checks,
    pauli_layer_check,
)
from .errors import BILabError
from .poly import Poly
from .racah import (
    RacahParams,
    TridiagRep,
    build_tridiag_rep,
    k1_spectrum_check,
    representation_check,
)
from .report import VerificationReport
from .sl1 import (
    ModuleParams,
    dunkl_commutator_check,
    module_bilinear_check,
    module_matrices,
    osp_casimir_check,
)

DEFAULT_SEED = 20140901  # fixed and documented for reproducibility


def _draws(rng: random.Random, k: int, lo: int, hi: int, qmax: int) -> list[Fraction]:
    """k rationals p/q, p uniform on lo..hi and q on 1..qmax, each p drawn
    before its q."""
    return [Fraction(rng.randint(lo, hi), rng.randint(1, qmax)) for _ in range(k)]


def random_bi_params(rng: random.Random) -> BIParams:
    """Unrestricted rational parameter tuple (relations need no guards)."""
    return BIParams(*_draws(rng, 4, -8, 8, 8))


def random_bi_params_regular(
    rng: random.Random, nmax: int
) -> tuple[BIParams, list[RecurrenceCoeffs], list[Poly]]:
    """Tuple passing every degeneracy guard up to degree nmax + 1, with
    what the guards computed: the recurrence coefficients of degrees
    0..nmax+1 and B_0..B_nmax by the hypergeometric route.

    The whole list rejects exactly the tuples that B_nmax alone rejects
    once the recurrence guard has passed: its lower-parameter guards grow
    with the degree, and its c_n denominators h + 1/2 + j (j < nmax) are
    those of A_j, 4(j + h + 1/2).

    The operator route needs no guard of its own: an eigenvalue collision
    lambda_i = lambda_n (i < n <= nmax) needs h = -(k + 1/2) with
    k = (i + n - 1)/2 <= nmax - 1, which zeroes the denominator
    4(k + h + 1/2) of A_k, so the recurrence guard rejects the tuple first.
    """
    while True:
        P = random_bi_params(rng)
        try:
            coeffs = [recurrence_coeffs(P, n) for n in range(nmax + 2)]
            hyp = bi_hypergeometric(P, nmax)
        except BILabError:
            continue
        return P, coeffs, hyp


def random_racah_params(rng: random.Random, max_n: int) -> RacahParams:
    """Admissible tuple: positive mu_i guarantee unitarity of the rep."""
    return RacahParams.make(*_draws(rng, 3, 1, 12, 6), rng.randint(0, max_n))


def random_dirac_params(rng: random.Random) -> DiracParams:
    return DiracParams.make(*_draws(rng, 3, 1, 9, 6))


def suite_bi(seed: int = DEFAULT_SEED, tuples: int = 50,
             maxdeg: int = 12) -> VerificationReport:
    """Exact BI relations and Casimir for seeded random tuples, both
    checked on one build of the generator matrices per tuple."""
    rng = random.Random(seed)
    report = VerificationReport(f"bi suite ({tuples} tuples, maxdeg {maxdeg})")
    for t in range(tuples):
        P = random_bi_params(rng)
        mats = bi_matrices(P, maxdeg)
        report.record_report("BI relations", t, check_bi_relations(P, mats))
        report.record_report("Casimir scalar", t, casimir_scalar(P, mats))
    return report


def suite_polynomials(seed: int = DEFAULT_SEED, tuples: int = 20,
                      nmax: int = 10) -> VerificationReport:
    """Triple-route equality of the Bannai-Ito polynomials."""
    rng = random.Random(seed)
    report = VerificationReport(
        f"polynomial triple-oracle suite ({tuples} tuples, n <= {nmax})"
    )
    for t in range(tuples):
        P, coeffs, hyps = random_bi_params_regular(rng, nmax)
        recs = bi_recurrence(recurrence_steps(P, coeffs[:nmax]))
        routes = zip(recs, hyps, bi_from_operator(P, nmax))
        for n, (rec, hyp, op) in enumerate(routes):
            report.record("recurrence = hypergeometric", (t, n), rec == hyp)
            report.record("recurrence = operator eigensolve", (t, n), rec == op)
    return report


def suite_ladders(seed: int = DEFAULT_SEED, tuples: int = 10) -> VerificationReport:
    """``ladder_check`` for n <= 10 on one build of the generator matrices
    per tuple, with the B_0..B_11 that the tuple draw computed."""
    nmax = 10
    rng = random.Random(seed)
    report = VerificationReport(f"ladder suite ({tuples} tuples, n <= {nmax})")
    for t in range(tuples):
        P, _, polys = random_bi_params_regular(rng, nmax + 1)
        report.record_report("ladders and V", t,
                             ladder_check(P, bi_matrices(P, nmax), polys))
    return report


def suite_sl1(seed: int = DEFAULT_SEED, tuples: int = 10) -> VerificationReport:
    nmax = 12
    rng = random.Random(seed)
    report = VerificationReport(f"sl_(-1)(2) suite ({tuples} tuples)")
    for t in range(tuples):
        eps = rng.choice([1, -1])
        [mu], [nu] = _draws(rng, 1, 0, 12, 6), _draws(rng, 1, 0, 9, 6)
        M = ModuleParams.make(eps, mu)
        mats = module_matrices(M.mu, nmax + 2)
        for sub in (module_bilinear_check(M, mats), osp_casimir_check(M, mats),
                    dunkl_commutator_check(nu, nmax)):
            report.record_report(sub.title, t, sub)
    return report


def identification_check(rep: TridiagRep,
                         coeffs: list[RecurrenceCoeffs]) -> VerificationReport:
    """B_k = 2 A_k and D_k = 2 C_k, cross-multiplied, under the parameter
    identifications; ``coeffs`` are the recurrence coefficients of degrees 0..N."""
    report = VerificationReport("racah/bi coefficient identification")
    for k, rc in enumerate(coeffs):
        for name, x, y in (("B_k = 2 A_k", rep.B[k], rc.A),
                           ("D_k = 2 C_k", rep.D[k], rc.C)):
            ok = x.numerator * y.denominator == 2 * y.numerator * x.denominator
            report.record(name, k, ok)
    return report


def suite_racah(seed: int = DEFAULT_SEED, tuples: int = 20) -> VerificationReport:
    max_n = 8
    rng = random.Random(seed)
    report = VerificationReport(f"racah suite ({tuples} tuples, N <= {max_n})")
    for t in range(tuples):
        RP = random_racah_params(rng, max_n)
        try:
            rep = build_tridiag_rep(RP)
        except BILabError as exc:
            report.record("exact tridiagonal representation", t, False, str(exc))
            continue
        report.record_report("exact tridiagonal representation", t,
                             representation_check(rep))
        P = RP.identifications()
        coeffs = [recurrence_coeffs(P, k) for k in range(RP.N + 1)]
        report.record_report("spectra", t,
                             k1_spectrum_check(rep, recurrence_steps(P, coeffs)))
        report.record_report("identifications", t, identification_check(rep, coeffs))
    return report


def suite_dirac(seed: int = DEFAULT_SEED, tuples: int = 10,
                maxdeg: int = 6) -> VerificationReport:
    rng = random.Random(seed)
    report = VerificationReport(
        f"dunkl-dirac suite ({tuples} tuples, slices <= {maxdeg})"
    )
    sub = pauli_layer_check()
    report.record_report(sub.title, "-", sub)
    for t in range(tuples):
        DP = random_dirac_params(rng)
        for sub in dirac_checks(DP, maxdeg):
            report.record_report(sub.title, t, sub)
    return report


SCOPES = {
    "bi": (suite_bi, suite_polynomials, suite_ladders),
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
        merged.record_report(sub.title, name, sub)
    return merged
