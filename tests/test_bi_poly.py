"""Bannai-Ito polynomials: three routes, ladder and V checks, weights."""

import functools
import random
from fractions import Fraction

import pytest

from bi_lab.bi_operator import BIParams, bi_matrices, k1_apply
from bi_lab.bi_poly import (
    RecurrenceCoeffs,
    bi_from_operator,
    bi_hypergeometric,
    bi_recurrence,
    discrete_weights,
    discrete_weights_exact,
    eigenvalue,
    grid_point,
    ladder_check,
    ladder_coeffs,
    ladder_operators,
    recurrence_coeffs,
    recurrence_steps,
)
from bi_lab.errors import BILabError
from bi_lab.exact import HALF, ONE, ZERO, rat_str, rat_to_float
from bi_lab.poly import P_ONE, P_ZERO, Poly
from bi_lab.racah import RacahParams
from bi_lab.suites import (
    random_bi_params,
    random_bi_params_regular,
    suite_ladders,
    suite_polynomials,
)
from poly_oracle import bi_recurrence_composed, k2_apply, k3_apply, poly_eval
from test_bi_mutants import flipped_ladder_coeff, omega1_in_second_form, perturbed_k3
from test_bi_operator import assert_no_truncation_column, bi_params, formed_residuals


def monic(P, n):
    """B_0, ..., B_n from one pass of the recurrence."""
    return bi_recurrence(recurrence_steps(P, [recurrence_coeffs(P, k) for k in range(n)]))


def fraction_ops(run) -> int:
    """The calls of Fraction's arithmetic operators (+, -, *, / and their
    reflected forms) that run() makes."""
    calls = [0]
    with pytest.MonkeyPatch.context() as mp:
        for name in ("__mul__", "__rmul__", "__add__", "__radd__",
                     "__sub__", "__rsub__", "__truediv__", "__rtruediv__"):
            def counted(a, b, _orig=getattr(Fraction, name)):
                calls[0] += 1
                return _orig(a, b)
            mp.setattr(Fraction, name, counted)
        run()
    return calls[0]


P1 = bi_params(1, 2, Fraction(1, 2), Fraction(1, 4))
B1 = monic(P1, 13)
R1 = RacahParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), 2)


# ---------------------------------------------------------------------------
# Reference oracle: B_n from the double 4F3 summed term by term in Fraction
# arithmetic, one degree per call, independent of bi_lab's integer sums.

def pochhammer(base, k):
    out = ONE
    for j in range(k):
        out *= base + j
    return out


def pochhammer_checked(base, k, label):
    for j in range(k):
        if base + j == 0:
            raise BILabError(
                f"lower Pochhammer ({label})_{k} vanishes at shift {j}"
            )
    return pochhammer(base, k)


def hyp4f3(a_scalars, a_polys, b_scalars, kmax):
    """Partial sum k = 0..kmax of a terminating 4F3 at unit argument with
    two polynomial numerator parameters."""
    scalar, term, out = ONE, P_ONE, P_ONE
    for k in range(1, kmax + 1):
        num, den = ONE, k
        for a in a_scalars:
            num *= a + k - 1
        for b in b_scalars:
            if b + k - 1 == 0:
                raise BILabError(
                    f"lower Pochhammer ({b})_{k} vanishes at shift {k - 1}"
                )
            den *= b + k - 1
        scalar = scalar * num / den
        for q in a_polys:
            term = term * (q + Poly.const(k - 1))
        out = out + term.scale(scalar)
    return out


def hypergeometric_oracle(P, n):
    """Monic B_n from the parity-split double-4F3 expression."""
    rho1, rho2, r1, r2, h = P.rho1, P.rho2, P.r1, P.r2, P.h
    m, p = divmod(n, 2)
    u = Poly.make([HALF - r1, 1])       # x - r1 + 1/2
    v = Poly.make([HALF - r1, -1])      # -x - r1 + 1/2
    b1 = 1 - r1 - r2
    b2 = rho1 - r1 + HALF
    b3 = rho2 - r1 + HALF
    if p == 0:
        f1 = hyp4f3([-m, m + HALF + h], [u, v], [b1, b2, b3], m)
        if m == 0:
            second = P_ZERO
        else:
            if b2 == 0 or b3 == 0:
                raise BILabError("prefactor denominator vanishes")
            f2 = hyp4f3([1 - m, m + HALF + h], [u + P_ONE, v],
                        [b1, b2 + 1, b3 + 1], m - 1)
            second = (u * f2).scale(Fraction(m) / (b2 * b3))
        body = f1 + second
    else:
        half_n = Fraction(n, 2)
        f1 = hyp4f3([-m, half_n + h], [u, v], [b1, b2, b3], m)
        if b2 == 0 or b3 == 0:
            raise BILabError("prefactor denominator vanishes")
        f2 = hyp4f3([-m, half_n + 1 + h], [u + P_ONE, v],
                    [b1, b2 + 1, b3 + 1], m)
        body = f1 - (u * f2).scale((half_n + h) / (b2 * b3))
    den = pochhammer_checked(m + h + HALF, m + p, "c_n denominator")
    c_n = pochhammer_checked(b1, m, "1-r1-r2") * pochhammer(b2, m + p) \
        * pochhammer(b3, m + p) / den
    if p == 1:
        c_n = -c_n
    return body.scale(c_n)


def raised(fn, *args):
    """The message of the BILabError fn(*args) raises, or None."""
    try:
        fn(*args)
    except BILabError as exc:
        return str(exc)
    return None


class TestEigenvaluesAndCoeffs:
    def test_eigenvalues_p1(self):
        assert [eigenvalue(P1, n) for n in range(3)] == [
            Fraction(11, 4), Fraction(-15, 4), Fraction(19, 4)
        ]

    def test_eigenvalue_closed_form(self):
        # Seeded h with denominators up to 10^6, negative and integer h among them.
        rng = random.Random(40)
        tuples = [bi_params(*(Fraction(rng.randint(-10**6, 10**6),
                                           rng.randint(1, 10**6)) for _ in range(4)))
                  for _ in range(100)]
        tuples += [bi_params(0, 0, 0, HALF), bi_params(HALF, 0, 0, 0),
                   bi_params(0, 0, 5, 0), bi_params(0, 0, Fraction(1, 10**6), 0)]
        assert any(P.h < 0 for P in tuples) and any(P.h.denominator == 1 for P in tuples)
        for P in tuples:
            for n in range(6):
                got = eigenvalue(P, n)
                assert type(got) is Fraction and got == (-1) ** n * (n + P.h), (P, n)

    def test_steps_and_eigenvalues_do_no_fraction_arithmetic_per_degree(self):
        # Each b_k, u_k and lambda_n is one Fraction of integers, so the
        # count does not grow with the degree.
        P1.h, P1.recurrence_shifts  # cached before counting
        counts = []
        for N in (4, 16):
            coeffs = [recurrence_coeffs(P1, n) for n in range(N + 1)]
            counts.append((
                fraction_ops(lambda: recurrence_steps(P1, coeffs)),
                fraction_ops(lambda: [eigenvalue(P1, n) for n in range(N + 1)])))
        assert counts[0] == counts[1], counts

    def test_recurrence_coeffs_p1(self):
        rc = recurrence_coeffs(P1, 0)
        assert rc.A == Fraction(5, 13) and rc.C == 0

    def test_c0_always_zero(self):
        rc = recurrence_coeffs(bi_params(2, 3, Fraction(1, 3), 1), 0)
        assert rc.C == 0

    def test_truncation_at_racah_params(self):
        assert recurrence_coeffs(R1.identifications(), 2).A == 0

    def test_shifts_cached_on_each_tuple(self):
        P, twin = (bi_params(2, 3, Fraction(1, 3), 1) for _ in range(2))
        want = recurrence_coeffs(P, 3)
        shifts = vars(P)["recurrence_shifts"]
        assert recurrence_coeffs(P, 3) == want and P.recurrence_shifts is shifts
        # An equal tuple shares no cache: it computes its own shifts.
        assert twin == P and "recurrence_shifts" not in vars(twin)
        assert recurrence_coeffs(twin, 3) == want
        assert vars(twin)["recurrence_shifts"] == shifts
        assert vars(twin)["recurrence_shifts"] is not shifts

    def test_degenerate_denominator(self):
        # rho1+rho2-r1-r2+1 = 0 at n = 0
        bad = bi_params(0, 0, Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(BILabError, match=r"^A_0 denominator vanishes for BIParams"):
            recurrence_coeffs(bad, 0)


def reference_coeffs(P, nmax):
    """(A_n, C_n) from their closed forms in Fraction arithmetic for
    n <= nmax, or the message of the package's guard where it fires;
    independent of the package's integer numerators."""
    a, b, c, d = (2 * v for v in (P.rho1, P.rho2, P.r1, P.r2))
    s = (a + b - c - d) / 2
    a_shifts = ((1 + a - c, 1 + a - d), (1 + 2 * s, 1 + a + b))
    c_shifts = ((0, -c - d), (b - d, b - c))
    out = []
    for n in range(nmax + 1):
        (xa, ya), (xc, yc) = a_shifts[n % 2], c_shifts[n % 2]
        den_a, den_c = 4 * (n + 1 + s), 4 * (n + s)
        if den_a == 0:
            out.append(f"A_{n} denominator vanishes for {P}")
        elif n == 0:
            out.append(((n + xa) * (n + ya) / den_a, Fraction(0)))
        elif den_c == 0:
            out.append(f"C_{n} denominator vanishes for {P}")
        else:
            out.append(((n + xa) * (n + ya) / den_a, -((n + xc) * (n + yc)) / den_c))
    return out


def coeffs_or_guard(P, n):
    """(A_n, C_n), or the message of the BILabError raised."""
    try:
        rc = recurrence_coeffs(P, n)
    except BILabError as exc:
        return str(exc)
    assert type(rc.A) is type(rc.C) is Fraction
    return rc.A, rc.C


class TestFractionFreeForms:
    def test_recurrence_coeffs_match_fraction_forms(self):
        # Each n is compared on its own, so a tuple raises at the same n.
        rng = random.Random(19)
        guards = {"A": 0, "C": 0}
        for _ in range(4000):
            P = BIParams(*(Fraction(rng.randint(-8, 8), rng.randint(1, 8))
                           for _ in range(4)))
            want = reference_coeffs(P, 13)
            assert [coeffs_or_guard(P, n) for n in range(14)] == want, P
            for entry in want:
                if isinstance(entry, str):
                    guards[entry[0]] += 1
        # Both guards fire on this draw, not only the value branch.
        assert min(guards.values()) > 50, guards

    @pytest.mark.parametrize("p", [
        P_ZERO,
        P_ONE,
        Poly.make([-3, 0, 7, -1]),
        Poly.make([Fraction(-5, 6), Fraction(3, 4), 0, Fraction(-7, 12)]),
        Poly.make([Fraction(10**40 + 1, 3), -(10**30), Fraction(1, 10**25)]),
        Poly.make([2**100, -(3**80)]),
        B1[13],
    ], ids=["zero", "one", "den1-negative", "negative-numerators",
            "large-mixed", "large-integers", "B13"])
    def test_poly_to_json_matches_rat_str(self, p):
        assert p.to_json() == [rat_str(c) for c in p.coeffs]


class TestThreeRoutes:
    def test_b0_and_b1(self):
        assert B1[0] == P_ONE
        assert B1[1] == Poly.make([Fraction(-8, 13), 1])

    @pytest.mark.parametrize("n", range(11))
    def test_triple_oracle_p1(self, n):
        rec = B1[n]
        assert rec == bi_hypergeometric(P1, 10)[n]
        assert rec == bi_from_operator(P1, 10)[n]

    def test_operator_sequence_to_12(self):
        assert bi_from_operator(P1, 12) == B1[:13]

    def test_operator_eigenvalue_collision(self):
        # h = -1/2, so lambda_0 = h = -(1 + h) = lambda_1.
        P = bi_params(0, 0, 0, 1)
        with pytest.raises(BILabError,
                           match="eigenvalue collision lambda_0 = lambda_1"):
            bi_from_operator(P, 1)

    def test_hypergeometric_vanishing_lower_parameter(self):
        # 1 - r1 - r2 = 0 is the first lower parameter of both 4F3 sums.
        P = bi_params(1, 2, Fraction(1, 2), Fraction(1, 2))
        for n in (2, 3, 6):
            for route in (bi_hypergeometric, hypergeometric_oracle):
                with pytest.raises(BILabError) as exc:
                    route(P, n)
                assert str(exc.value) == "lower Pochhammer (0)_1 vanishes at shift 0"

    def test_hypergeometric_equals_oracle(self):
        # 300 seeded tuples on which the integer sums run, every degree.
        rng, done = random.Random(15), 0
        while done < 300:
            P = random_bi_params(rng)
            try:
                hyps = bi_hypergeometric(P, 10)
            except BILabError:
                continue
            assert hyps == [hypergeometric_oracle(P, n) for n in range(11)], P
            done += 1

    def test_hypergeometric_equals_recurrence_to_16(self, monkeypatch):
        # 100 seeded tuples of the suite's draw, every degree to 16: the
        # unreduced integer c_n and t_n reach Poly.from_ints, negative
        # denominators included, and b2 b3 < 0 on many of the tuples.
        dens = []
        def from_ints(nums, den, _orig=Poly.from_ints):
            dens.append(den)
            return _orig(nums, den)
        monkeypatch.setattr(Poly, "from_ints", staticmethod(from_ints))
        rng, negative = random.Random(28), 0
        for _ in range(100):
            P, coeffs, hyps = random_bi_params_regular(rng, 16)
            assert hyps == bi_recurrence(recurrence_steps(P, coeffs[:16])), P
            b2, b3 = P.rho1 - P.r1 + HALF, P.rho2 - P.r1 + HALF
            negative += b2 * b3 < 0
        assert negative >= 20 and min(dens) < 0

    def test_hypergeometric_does_no_fraction_arithmetic_per_degree(self):
        # Only the set-up of H, a and b1..b3 uses Fraction: c_n, t_n and the
        # rising factorials are integers, so the count does not grow with nmax.
        P1.h  # cached before counting
        counts = [fraction_ops(lambda: bi_hypergeometric(P1, nmax)) for nmax in (4, 16)]
        assert counts[0] > 0 and counts[0] == counts[1], counts

    def test_degenerate_tuples_raise_like_the_oracle(self):
        # A vanishing lower parameter, b2 = 0 where only B_1's prefactor
        # divides by it, and c_n denominators h + 1/2 + j = 0 (j = 1, 3).
        hand = [(bi_params(1, 2, Fraction(1, 2), Fraction(1, 2)), 6,
                 "lower Pochhammer (0)_1 vanishes at shift 0"),
                (bi_params(0, 2, Fraction(1, 2), Fraction(1, 4)), 1,
                 "lower Pochhammer (0)_1 vanishes at shift 0"),
                (bi_params(0, 0, Fraction(1, 4), Fraction(7, 4)), 2,
                 "c_n denominator factor h + 1/2 + 1 vanishes"),
                (bi_params(0, 0, 1, 3), 7,
                 "c_n denominator factor h + 1/2 + 3 vanishes")]
        for P, nmax, message in hand:
            assert raised(hypergeometric_oracle, P, nmax) is not None
            assert raised(bi_hypergeometric, P, nmax) == message
        # On tuples that pass the recurrence guards up to nmax + 1, as in
        # the suite's draw, the list raises exactly when degree nmax does.
        rng, seen = random.Random(16), {False: 0, True: 0}
        while min(seen.values()) < 40:
            P = random_bi_params(rng)
            try:
                for n in range(12):
                    recurrence_coeffs(P, n)
            except BILabError:
                continue
            fails = raised(hypergeometric_oracle, P, 10) is not None
            assert (raised(bi_hypergeometric, P, 10) is not None) is fails, P
            seen[fails] += 1

    def test_shifted_lower_parameter_fails_suite(self, monkeypatch):
        # Mutant: b3 -> b3 + 1 among the lower parameters of both sums.
        # B_0 = 1 and B_1 have no sum terms; every B_n with n >= 2 does.
        import inspect

        import bi_lab.bi_poly as bp
        import bi_lab.suites as suites

        source = inspect.getsource(bp.bi_hypergeometric)
        mutant = source.replace("_shifted(b3, k - 1 + d)", "_shifted(b3, k + d)")
        assert mutant != source
        namespace = dict(vars(bp))
        exec(mutant, namespace)
        monkeypatch.setattr(suites, "bi_hypergeometric",
                            namespace["bi_hypergeometric"])
        report = suite_polynomials(seed=1, tuples=1)
        failed = {(e.check, e.index) for e in report.entries if not e.ok}
        assert failed == {("recurrence = hypergeometric", (0, n))
                          for n in range(2, 11)}

    def test_one_k1_build_per_tuple(self, monkeypatch):
        import bi_lab.bi_poly as bp

        calls = []
        def counted(P, apply, n, _orig=bp.monomial_matrix):
            calls.append(n)
            return _orig(P, apply, n)
        monkeypatch.setattr(bp, "monomial_matrix", counted)
        for _ in range(2):  # a second identical call does the same work again
            calls.clear()
            assert suite_polynomials(seed=1, tuples=1, nmax=10).passed
            # One K1 for the suite; the tuple draw builds none.
            assert calls == [11]

    def test_operator_route_builds_from_k1_apply(self, monkeypatch):
        # The eigensolve rests on the defining operator: one k1_apply per
        # monomial, and no k1_matrix.
        import bi_lab.bi_operator as bo
        import bi_lab.bi_poly as bp

        want = bi_from_operator(P1, 10)
        applied = []
        def counted(P, p, _orig=bp.k1_apply):
            applied.append(p.degree())
            return _orig(P, p)
        def forbidden(*args):
            raise AssertionError("bi_from_operator called k1_matrix")
        monkeypatch.setattr(bp, "k1_apply", counted)
        monkeypatch.setattr(bo, "k1_matrix", forbidden)
        assert bi_from_operator(P1, 10) == want == B1[:11]
        assert applied == list(range(11))

    def test_suite_reuses_guard_results(self, monkeypatch):
        import bi_lab.suites as suites

        nmax, in_guard, calls = 10, [False], []
        def draw(rng, n, _orig=suites.random_bi_params_regular):
            in_guard[0] = True
            try:
                return _orig(rng, n)
            finally:
                in_guard[0] = False
        def hyp(P, n, _orig=suites.bi_hypergeometric):
            out = _orig(P, n)  # a draw the guard rejects raises here
            calls.append((n, in_guard[0]))
            return out
        monkeypatch.setattr(suites, "random_bi_params_regular", draw)
        monkeypatch.setattr(suites, "bi_hypergeometric", hyp)
        assert suite_polynomials(seed=1, tuples=3, nmax=nmax).passed
        # One call per accepted tuple, the guard's, at nmax.
        assert calls == [(nmax, True)] * 3

    def test_regular_draw_needs_no_operator_guard(self):
        nmax = 10  # suite_polynomials' default

        def guarded(rng):
            # Reference draw that rejects a tuple when the degree-nmax
            # oracle or the operator route rejects it.
            while True:
                P = random_bi_params(rng)
                try:
                    for n in range(nmax + 2):
                        recurrence_coeffs(P, n)
                    hypergeometric_oracle(P, nmax)
                    bi_from_operator(P, nmax)
                except BILabError:
                    continue
                return P

        for seed in range(1, 201):
            rng, ref = random.Random(seed), random.Random(seed)
            P, coeffs, hyps = random_bi_params_regular(rng, nmax)
            assert P == guarded(ref)
            assert coeffs == [recurrence_coeffs(P, n) for n in range(nmax + 2)]
            assert hyps[nmax] == hypergeometric_oracle(P, nmax)
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("n", range(13))
    def test_eigen_equation(self, n):
        bn = B1[n]
        assert k1_apply(P1, bn) == bn.scale(eigenvalue(P1, n))

    def test_monic(self):
        for n in range(8):
            assert B1[n].coeffs[-1] == 1

    def test_hypergeometric_n0(self):
        assert bi_hypergeometric(P1, 0) == [P_ONE]


def seeded_steps(rng, m, big=False, zero_u=0.0):
    """m random steps (b_k, u_k); u_k = 0 with probability zero_u, and
    numerators of about 10^30 over denominators up to 10^6 when big."""
    top, dtop = (10**30, 10**6) if big else (40, 12)
    def rat():
        return Fraction(rng.randint(-top, top), rng.randint(1, dtop))
    return [(rat(), ZERO if rng.random() < zero_u else rat()) for _ in range(m)]


class TestIntegerRecurrence:
    # bi_recurrence on integers equals the Poly-arithmetic recurrence
    # field for field, on steps that no parameter tuple need produce.
    def test_no_steps(self):
        assert bi_recurrence([]) == bi_recurrence_composed([]) == [P_ONE]

    @pytest.mark.parametrize("big", [False, True])
    @pytest.mark.parametrize("zero_u", [0.0, 0.5, 1.0])
    def test_equals_poly_arithmetic(self, big, zero_u):
        rng = random.Random(f"{big}-{zero_u}")
        for m in range(14):
            steps = seeded_steps(rng, m, big, zero_u)
            assert bi_recurrence(steps) == bi_recurrence_composed(steps), steps

    def test_integer_and_zero_steps(self):
        # b_k = 0 and u_k = 0: p_k = x^k; integer steps keep den 1.
        assert bi_recurrence([(ZERO, ZERO)] * 5) == [Poly.monomial(k) for k in range(6)]
        steps = [(Fraction(k - 2), Fraction(k * k)) for k in range(9)]
        got = bi_recurrence(steps)
        assert got == bi_recurrence_composed(steps)
        assert all(p.den == 1 for p in got)

    def test_bi_steps(self):
        # The steps of recurrence_steps on seeded regular tuples.
        rng = random.Random(27)
        for _ in range(20):
            P, coeffs, _ = random_bi_params_regular(rng, 12)
            steps = recurrence_steps(P, coeffs)
            assert bi_recurrence(steps) == bi_recurrence_composed(steps)


class TestGrid:
    def test_grid_rho1_one(self):
        P = bi_params(1, 0, 0, 0)
        assert [grid_point(P, s) for s in range(3)] == [1, -2, 2]

    def test_grid_matches_display(self):
        # x_s = (-1)^s (s/2 + rho1 + 1/4) - 1/4 in Fraction arithmetic,
        # at rho1 of either sign and of several denominators.
        rng = random.Random(26)
        for _ in range(200):
            rho1 = Fraction(rng.randint(-40, 40), rng.randint(1, 24))
            P = BIParams(rho1, ONE, Fraction(1, 3), Fraction(1, 5))
            for s in range(12):
                base = Fraction(s, 2) + rho1 + Fraction(1, 4)
                assert grid_point(P, s) == (base if s % 2 == 0 else -base) - Fraction(1, 4)


# ---------------------------------------------------------------------------
# Reference oracle: K+- and V composed on polynomials from k1_apply,
# k2_apply and k3_apply, independent of the generator matrices.


def ladder_poly(P, sign, p):
    """K+ (sign 1) = (K2 + K3)(K1 - 1/2) - (omega2 + omega3)/2 or
    K- (sign -1) = (K2 - K3)(K1 + 1/2) + (omega2 - omega3)/2."""
    q = k1_apply(P, p) - p.scale(sign * HALF)
    out = k2_apply(P, q) + k3_apply(P, q).scale(sign)
    return out - p.scale(sign * (P.omega2 + sign * P.omega3) / 2)


def v_poly(P, p):
    """V = K+ (K1 + 1/2) + K- (K1 - 1/2)."""
    k1p = k1_apply(P, p)
    return (ladder_poly(P, 1, k1p + p.scale(HALF))
            + ladder_poly(P, -1, k1p - p.scale(HALF)))


def v_poly_second(P, p):
    """V = 2 K2 (K1^2 - 1/4) - omega3 K1 - omega2/2."""
    q = k1_apply(P, k1_apply(P, p)) - p.scale(Fraction(1, 4))
    return (k2_apply(P, q).scale(2) - k1_apply(P, p).scale(P.omega3)
            - p.scale(P.omega2 / 2))


def column(p, den):
    """den times the coefficients of p, by degree: the numerators of a real
    column over den that holds p."""
    return {i: c * den for i, c in enumerate(p.coeffs) if c}


LADDER_CHECKS = ["{K1,K+} = K+", "{K1,K-} = -K-", "K+ B_n closed form",
                 "K- B_n closed form", "V first form = second form",
                 "V B_n two-diagonal"]
THREE_TUPLES = [P1, bi_params(Fraction(-1, 3), Fraction(2, 7), 5, Fraction(-3, 2)),
                bi_params(Fraction(5, 6), Fraction(-7, 4), Fraction(3, 8),
                              Fraction(1, 9))]


@functools.lru_cache(maxsize=None)
def operators_to_12(P):
    """K+, K- and V in both forms from ``bi_matrices(P, 12)``."""
    return ladder_operators(P, bi_matrices(P, 12))


def failed_ladder_checks(P, nmax=10):
    report = ladder_check(P, bi_matrices(P, nmax), bi_hypergeometric(P, nmax + 1))
    assert report.checked == len(LADDER_CHECKS) * (nmax + 1)
    return {(e.check, e.index) for e in report.failures}


class TestLadders:
    def test_pins_p1(self):
        # K+ kills B_0, K- B_0 = beta0 B_1, K+ B_1 = alpha1 B_2.
        assert ladder_coeffs(P1, 0) == (0, 13)
        assert ladder_coeffs(P1, 1)[0] == -17
        assert ladder_poly(P1, 1, B1[0]) == P_ZERO
        assert ladder_poly(P1, -1, B1[0]) == B1[1].scale(13)
        assert ladder_poly(P1, 1, B1[1]) == B1[2].scale(-17)

    def test_check_p1(self):
        # B1 holds B_0..B_13: the anticommutators for d <= 12 and the
        # closed forms for n <= 12.
        report = ladder_check(P1, bi_matrices(P1, 12), B1[:14])
        assert report.passed
        assert [(e.check, e.index) for e in report.entries] == [
            (name, j) for j in range(13) for name in LADDER_CHECKS]

    @pytest.mark.parametrize("d", range(13))
    @pytest.mark.parametrize("P", THREE_TUPLES)
    def test_operators_equal_poly_composition(self, P, d):
        # Columns 0..12 of the products of truncated matrices are exact.
        plus, minus, v, v2 = operators_to_12(P)
        mono = Poly.monomial(d)
        assert not any(op.phase for op in (plus, minus, v, v2))
        assert plus.nums[d] == column(ladder_poly(P, 1, mono), plus.den)
        assert minus.nums[d] == column(ladder_poly(P, -1, mono), minus.den)
        assert v.nums[d] == column(v_poly(P, mono), v.den)
        assert v2.nums[d] == column(v_poly_second(P, mono), v2.den)

    @pytest.mark.parametrize("n", range(11))
    def test_closed_forms_by_composition(self, n):
        # The closed forms of ladder_coeffs on B_n, by the Poly oracle.
        alpha, beta = ladder_coeffs(P1, n)
        up, down = (B1[n + 1], B1[n - 1]) if n % 2 else (B1[n - 1], B1[n + 1])
        assert ladder_poly(P1, 1, B1[n]) == (up.scale(alpha) if n else P_ZERO)
        assert ladder_poly(P1, -1, B1[n]) == down.scale(beta)

    def test_h_one_half(self):
        # h = 1/2 zeroes the denominator of alpha0 only at n = 0, where the
        # factor n already makes alpha0 = 0: no guard applies there.
        P = bi_params(1, Fraction(1, 3), Fraction(1, 2), Fraction(5, 6))
        assert P.h == HALF and ladder_coeffs(P, 0) == (0, 4)
        assert ladder_poly(P, 1, P_ONE) == P_ZERO
        assert not failed_ladder_checks(P, 6)

    def test_degenerate_denominator(self):
        # n + h - 1/2 = 0 at n = 1: h = -1/2.
        P = bi_params(0, 0, 1, 0)
        with pytest.raises(BILabError,
                           match=r"^ladder denominator n \+ h - 1/2 = 0 at n=1$"):
            ladder_coeffs(P, 1)

    def test_t_is_built_from_integer_numerators(self, monkeypatch):
        # T reads each B_n's numerators, never its Fraction coefficients.
        def no_coeffs(p):
            raise AssertionError("ladder_check read Poly.coeffs")
        mats = bi_matrices(P1, 12)
        monkeypatch.setattr(Poly, "coeffs", property(no_coeffs))
        assert ladder_check(P1, mats, B1[:14]).passed

    def test_flipped_coefficient_fails(self, monkeypatch):
        flipped_ladder_coeff(0)(monkeypatch)
        # K+ B_3 = alpha1 B_4 enters L+ and L_V in column 3 only.
        assert failed_ladder_checks(P1) == {("K+ B_n closed form", 3),
                                            ("V B_n two-diagonal", 3)}

    def test_wrong_omega3_in_second_form_fails(self, monkeypatch):
        omega1_in_second_form(monkeypatch)
        # omega1 != omega3 at P1; K1 x^j has a nonzero x^j coefficient.
        assert failed_ladder_checks(P1) == {("V first form = second form", j)
                                            for j in range(11)}

    @pytest.mark.parametrize("mutant", [None, perturbed_k3], ids=["exact", "K3 + I"])
    def test_no_truncation_column_is_formed(self, monkeypatch, mutant):
        # The ladder residuals are formed on columns 0..nmax only; under
        # K3 + I, which breaks the ladder relations, too.
        import bi_lab.bi_poly as bp

        if mutant:
            mutant(monkeypatch)
        report, calls = formed_residuals(monkeypatch, bp,
                                         lambda: suite_ladders(seed=1, tuples=2))
        assert len(calls) == 2 and all(n == 11 for _, n in calls)
        assert report.passed is (mutant is None)
        assert_no_truncation_column(calls)


class TestVOperator:
    @pytest.mark.parametrize("n", range(11))
    def test_action_on_bn_multiplicative(self, n):
        # V B_n = ((4x + 1)(lambda_n^2 - 1/4) - omega3 lambda_n - omega2/2) B_n
        bn = B1[n]
        lam = eigenvalue(P1, n)
        factor = Poly.make([1, 4]).scale(lam**2 - Fraction(1, 4)) - \
            Poly.const(P1.omega3 * lam + P1.omega2 / 2)
        assert v_poly_second(P1, bn) == factor * bn

    @pytest.mark.parametrize("n", range(11))
    def test_two_diagonal_by_composition(self, n):
        alpha, beta = ladder_coeffs(P1, n)
        lam = eigenvalue(P1, n)
        up, down = (B1[n + 1], B1[n - 1]) if n % 2 else (B1[n - 1], B1[n + 1])
        plus = up.scale((lam + HALF) * alpha) if n else P_ZERO
        assert v_poly(P1, B1[n]) == plus + down.scale((lam - HALF) * beta)


def coeffs_upto(P, N):
    """Recurrence coefficients of degrees 0..N."""
    return [recurrence_coeffs(P, k) for k in range(N + 1)]


def weights_by_definition(P, N):
    """The defining w_s = 1 / sum_k B_k(x_s)^2 / (u_1 ... u_k), with the
    monic B_k of ``bi_recurrence`` evaluated by ``poly_eval``."""
    steps = recurrence_steps(P, coeffs_upto(P, N))
    norm2 = [ONE]
    for _, u in steps[1:]:
        norm2.append(norm2[-1] * u)
    polys = bi_recurrence(steps[:N])
    out = []
    for s in range(N + 1):
        x = grid_point(P, s)
        out.append((x, 1 / sum(poly_eval(p, x) ** 2 / n2
                               for p, n2 in zip(polys, norm2))))
    return out


def orthogonality_sums(P, weights):
    """The sums of acceptance criterion 8: sum_s w_s B_m(x_s) B_n(x_s)
    for m < n, which vanish exactly for the true weights."""
    polys = monic(P, len(weights) - 1)
    return [sum(w * poly_eval(polys[m], x) * poly_eval(polys[n], x)
                for x, w in weights)
            for m in range(len(polys)) for n in range(m + 1, len(polys))]


def random_admissible_racah(seed):
    """A Racah tuple with mu_i = p/q - 1/2 (p <= 27, q <= 9) and N <= 24."""
    rng = random.Random(seed)
    mus = [Fraction(rng.randint(1, 27), rng.randint(1, 9)) - HALF
           for _ in range(3)]
    return RacahParams.make(*mus, rng.randint(0, 24))


MU = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))
BOUNDARY_MU = [(0, 0, 0), (Fraction(-1, 4), Fraction(1, 3), 0),
               (Fraction(-2, 5), Fraction(-2, 5), Fraction(-2, 5))]
# Two fixed tuples for N <= 24, the boundary mu for N <= 8, seeded draws.
CLOSED_FORM_CASES = (
    [RacahParams.make(*mu, N) for mu in (MU, (Fraction(3, 2), Fraction(5, 6),
                                             Fraction(7, 3)))
     for N in range(25)]
    + [RacahParams.make(*mu, N) for mu in BOUNDARY_MU for N in range(9)]
    + [random_admissible_racah(seed) for seed in range(12)]
)


def racah_id(RP):
    return f"mu={RP.mu1},{RP.mu2},{RP.mu3}-N={RP.N}"


class TestClosedFormWeights:
    @pytest.mark.parametrize("RP", CLOSED_FORM_CASES, ids=racah_id)
    def test_equals_definition(self, RP):
        P = RP.identifications()
        assert discrete_weights_exact(P, coeffs_upto(P, RP.N)) == \
            weights_by_definition(P, RP.N)

    @pytest.mark.parametrize("RP", [RacahParams.make(*mu, N)
                                    for mu in BOUNDARY_MU + [MU] for N in (1, 6)],
                             ids=racah_id)
    def test_orthogonality_fails_on_perturbed_weights(self, RP):
        P = RP.identifications()
        weights = discrete_weights_exact(P, coeffs_upto(P, RP.N))
        assert not any(orthogonality_sums(P, weights))
        # Half of w_1 moves to w_0: still positive with total 1, so only
        # the orthogonality sums can notice.
        (x0, w0), (x1, w1) = weights[:2]
        bad = [(x0, w0 + w1 / 2), (x1, w1 / 2)] + weights[2:]
        assert all(w > 0 for _, w in bad) and sum(w for _, w in bad) == 1
        assert any(orthogonality_sums(P, bad))


class TestDiscreteWeights:
    def test_n0_single_node(self):
        P = RacahParams.make(
            Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), 0
        ).identifications()
        assert recurrence_coeffs(P, 0).A == 0
        nodes = discrete_weights(P, coeffs_upto(P, 0))
        assert nodes == [(rat_to_float(P.rho1), 1.0)]

    def test_racah_truncation(self):
        P = R1.identifications()
        out = discrete_weights(P, coeffs_upto(P, 2))
        grid = [rat_to_float(grid_point(P, s)) for s in range(3)]
        for (node, weight), x in zip(out, grid):
            assert abs(node - x) < 1e-10
            assert weight > 0
        assert abs(sum(w for _, w in out) - 1.0) < 1e-12

    def test_orthogonality(self):
        P = R1.identifications()
        out = discrete_weights(P, coeffs_upto(P, 2))
        polys = monic(P, 2)
        for m in range(3):
            for n in range(m + 1, 3):
                total = sum(
                    w * rat_to_float(poly_eval(polys[m], grid_point(P, s)))
                    * rat_to_float(poly_eval(polys[n], grid_point(P, s)))
                    for s, (_, w) in enumerate(out)
                )
                assert abs(total) < 1e-9

    def test_requires_truncation(self):
        with pytest.raises(BILabError, match="truncation A_3"):
            discrete_weights(P1, coeffs_upto(P1, 3))  # A_3 != 0 for P1

    def test_exact_requires_truncation(self):
        with pytest.raises(BILabError, match="truncation A_3"):
            discrete_weights_exact(P1, coeffs_upto(P1, 3))

    @pytest.mark.parametrize("weights", [discrete_weights, discrete_weights_exact])
    def test_requires_positive_products(self, weights):
        # R1's coefficients with C_1 negated: A_2 = 0 still holds, u_1 < 0.
        P = R1.identifications()
        coeffs = coeffs_upto(P, 2)
        coeffs[1] = RecurrenceCoeffs(coeffs[1].A, -coeffs[1].C)
        with pytest.raises(BILabError, match="not positive"):
            weights(P, coeffs)

    def test_exact_weights_match_eigensolve(self):
        P = R1.identifications()
        exact = discrete_weights_exact(P, coeffs_upto(P, 2))
        floats = discrete_weights(P, coeffs_upto(P, 2))
        assert sum(w for _, w in exact) == 1
        for (x, w), (node, weight) in zip(exact, floats):
            assert abs(rat_to_float(x) - node) < 1e-10
            assert abs(rat_to_float(w) - weight) < 1e-10

    def test_exact_orthogonality_is_exact(self):
        P = R1.identifications()
        exact = discrete_weights_exact(P, coeffs_upto(P, 2))
        polys = monic(P, 2)
        for m in range(3):
            for n in range(3):
                total = sum(
                    w * poly_eval(polys[m], x) * poly_eval(polys[n], x)
                    for x, w in exact
                )
                if m != n:
                    assert total == 0
