"""Bannai-Ito polynomials: three routes, ladders, V operator, weights."""

import random
from fractions import Fraction

import pytest

from bi_lab.bi_operator import BIParams, k1_apply
from bi_lab.bi_poly import (
    bi_from_operator,
    bi_hypergeometric,
    bi_recurrence,
    bi_values,
    complementary_bi,
    discrete_weights,
    discrete_weights_exact,
    eigenvalue,
    grid_point,
    ladder_apply,
    ladder_coeffs,
    recurrence_coeffs,
    recurrence_steps,
    v_apply,
)
from bi_lab.errors import (
    BILabError,
    DegenerateParameters,
    DegenerateSpectrum,
    NotFinitelyOrthogonal,
)
from bi_lab.exact import HALF, ONE, rat_to_float
from bi_lab.poly import P_ONE, P_ZERO, Poly, poly_eval
from bi_lab.racah import RacahParams
from bi_lab.suites import (
    random_bi_params,
    random_bi_params_regular,
    suite_polynomials,
)


def monic(P, n):
    """B_0, ..., B_n from one pass of the recurrence."""
    return bi_recurrence(recurrence_steps(P, [recurrence_coeffs(P, k) for k in range(n)]))


P1 = BIParams.make(1, 2, Fraction(1, 2), Fraction(1, 4))
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
            raise DegenerateParameters(
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
                raise DegenerateParameters(
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
                raise DegenerateParameters("prefactor denominator vanishes")
            f2 = hyp4f3([1 - m, m + HALF + h], [u + P_ONE, v],
                        [b1, b2 + 1, b3 + 1], m - 1)
            second = (u * f2).scale(Fraction(m) / (b2 * b3))
        body = f1 + second
    else:
        half_n = Fraction(n, 2)
        f1 = hyp4f3([-m, half_n + h], [u, v], [b1, b2, b3], m)
        if b2 == 0 or b3 == 0:
            raise DegenerateParameters("prefactor denominator vanishes")
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
    """The exception class fn(*args) raises, or None."""
    try:
        fn(*args)
    except BILabError as exc:
        return type(exc)
    return None


class TestEigenvaluesAndCoeffs:
    def test_eigenvalues_p1(self):
        assert [eigenvalue(P1, n) for n in range(3)] == [
            Fraction(11, 4), Fraction(-15, 4), Fraction(19, 4)
        ]

    def test_recurrence_coeffs_p1(self):
        rc = recurrence_coeffs(P1, 0)
        assert rc.A == Fraction(5, 13) and rc.C == 0

    def test_c0_always_zero(self):
        rc = recurrence_coeffs(BIParams.make(2, 3, Fraction(1, 3), 1), 0)
        assert rc.C == 0

    def test_truncation_at_racah_params(self):
        assert recurrence_coeffs(R1.identifications(), 2).A == 0

    def test_degenerate_denominator(self):
        # rho1+rho2-r1-r2+1 = 0 at n = 0
        bad = BIParams.make(0, 0, Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(DegenerateParameters):
            recurrence_coeffs(bad, 0)


class TestSequenceAndValues:
    @pytest.mark.parametrize("P, N", [(P1, 8)] + [
        (RacahParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), N)
         .identifications(), N)
        for N in (0, 1, 8, 24)
    ])
    def test_values_equal_horner_on_grid(self, P, N):
        grid = [grid_point(P, s) for s in range(N + 1)]
        steps = recurrence_steps(P, [recurrence_coeffs(P, k) for k in range(N)])
        polys = bi_recurrence(steps)
        assert len(polys) == N + 1
        assert bi_values(steps, grid) == [[poly_eval(p, x) for p in polys]
                                          for x in grid]


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
        P = BIParams.make(0, 0, 0, 1)
        with pytest.raises(DegenerateSpectrum,
                           match="eigenvalue collision lambda_0 = lambda_1"):
            bi_from_operator(P, 1)

    def test_hypergeometric_vanishing_lower_parameter(self):
        # 1 - r1 - r2 = 0 is the first lower parameter of both 4F3 sums.
        P = BIParams.make(1, 2, Fraction(1, 2), Fraction(1, 2))
        for n in (2, 3, 6):
            for route in (bi_hypergeometric, hypergeometric_oracle):
                with pytest.raises(DegenerateParameters) as exc:
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

    def test_degenerate_tuples_raise_like_the_oracle(self):
        # A vanishing lower parameter, b2 = 0 where only B_1's prefactor
        # divides by it, and c_n denominators h + 1/2 + j = 0 (j = 1, 3).
        hand = [(BIParams.make(1, 2, Fraction(1, 2), Fraction(1, 2)), 6),
                (BIParams.make(0, 2, Fraction(1, 2), Fraction(1, 4)), 1),
                (BIParams.make(0, 0, Fraction(1, 4), Fraction(7, 4)), 2),
                (BIParams.make(0, 0, 1, 3), 7)]
        for P, nmax in hand:
            assert raised(hypergeometric_oracle, P, nmax) is DegenerateParameters
            assert raised(bi_hypergeometric, P, nmax) is DegenerateParameters
        # On tuples that pass the recurrence guards up to nmax + 1, as in
        # the suite's draw, the list raises exactly when degree nmax does.
        rng, seen = random.Random(16), {None: 0, DegenerateParameters: 0}
        while min(seen.values()) < 40:
            P = random_bi_params(rng)
            try:
                for n in range(12):
                    recurrence_coeffs(P, n)
            except BILabError:
                continue
            cls = raised(hypergeometric_oracle, P, 10)
            assert raised(bi_hypergeometric, P, 10) is cls, P
            seen[cls] += 1

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


class TestGrid:
    def test_grid_rho1_one(self):
        P = BIParams.make(1, 0, 0, 0)
        assert [grid_point(P, s) for s in range(3)] == [1, -2, 2]


class TestLadders:
    def test_plus_kills_b0(self):
        assert ladder_apply(P1, "+", B1[0]) == P_ZERO

    def test_minus_on_b0(self):
        got = ladder_apply(P1, "-", B1[0])
        assert got == B1[1].scale(13)
        assert ladder_coeffs(P1, 0).beta0 == 13

    def test_plus_on_b1(self):
        got = ladder_apply(P1, "+", B1[1])
        assert got == B1[2].scale(-17)
        assert ladder_coeffs(P1, 1).alpha1 == -17

    @pytest.mark.parametrize("n", range(11))
    def test_parity_actions_closed_forms(self, n):
        bn = B1[n]
        lc = ladder_coeffs(P1, n)
        if n % 2 == 0:
            up = P_ZERO if n == 0 else B1[n - 1].scale(lc.alpha0)
            assert ladder_apply(P1, "+", bn) == up
            assert ladder_apply(P1, "-", bn) == B1[n + 1].scale(lc.beta0)
        else:
            assert ladder_apply(P1, "+", bn) == B1[n + 1].scale(lc.alpha1)
            assert ladder_apply(P1, "-", bn) == B1[n - 1].scale(lc.beta1)

    @pytest.mark.parametrize("d", range(13))
    def test_anticommutation_with_k1(self, d):
        # {K1, K±} = ±K± on every monomial.
        mono = Poly.monomial(d)
        for sign, expect in (("+", 1), ("-", -1)):
            lhs = k1_apply(P1, ladder_apply(P1, sign, mono)) + \
                ladder_apply(P1, sign, k1_apply(P1, mono))
            assert lhs == ladder_apply(P1, sign, mono).scale(expect)


class TestVOperator:
    @pytest.mark.parametrize("d", range(11))
    def test_two_forms_agree(self, d):
        mono = Poly.monomial(d)
        assert v_apply(P1, mono, "first") == v_apply(P1, mono, "second")

    @pytest.mark.parametrize("n", range(11))
    def test_action_on_bn_two_diagonal(self, n):
        bn = B1[n]
        lam = eigenvalue(P1, n)
        lc = ladder_coeffs(P1, n)
        half = Fraction(1, 2)
        if n % 2 == 0:
            lower = P_ZERO if n == 0 else \
                B1[n - 1].scale((lam + half) * lc.alpha0)
            upper = B1[n + 1].scale((lam - half) * lc.beta0)
        else:
            lower = B1[n - 1].scale((lam - half) * lc.beta1)
            upper = B1[n + 1].scale((lam + half) * lc.alpha1)
        assert v_apply(P1, bn, "first") == lower + upper

    @pytest.mark.parametrize("n", range(11))
    def test_action_on_bn_multiplicative(self, n):
        bn = B1[n]
        lam = eigenvalue(P1, n)
        factor = Poly.make([1, 4]).scale(lam**2 - Fraction(1, 4)) - \
            Poly.const(P1.omega3 * lam + P1.omega2 / 2)
        assert v_apply(P1, bn, "second") == factor * bn

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            v_apply(P1, P_ONE, "third")


class TestComplementary:
    def test_i0(self):
        assert complementary_bi(P1, 0) == P_ONE

    @pytest.mark.parametrize("n", range(9))
    def test_degree(self, n):
        p = complementary_bi(P1, n)
        assert p.degree() == n
        assert p.coeffs[-1] == 1


def coeffs_upto(P, N):
    """Recurrence coefficients of degrees 0..N."""
    return [recurrence_coeffs(P, k) for k in range(N + 1)]


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
        with pytest.raises(NotFinitelyOrthogonal):
            discrete_weights(P1, coeffs_upto(P1, 3))  # A_3 != 0 for P1

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
