"""Dunkl-Dirac operator on S^2: exact identities and a matrix oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bi_lab.dunkl_dirac import (
    PAULI,
    DiracParams,
    Poly3,
    angular_momentum,
    dunkl_partial,
    gamma_square_identity,
    jj_commutator_check,
    pauli_layer_check,
    reflect,
    symmetry_check,
    symmetry_generators,
    var_mul,
)
from bi_lab.exact import GRAT_ONE, GRat
from bi_lab.linop import LinOp, lincomb
from bi_lab.sl1 import dunkl_scale, dunkl_slice
from bi_lab.suites import suite_dirac

DP1 = DiracParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))
DP0 = DiracParams.make(0, 0, 0)
DP_NEG = DiracParams.make(Fraction(-1, 3), Fraction(2, 5), Fraction(-3, 7))


def point(DP):
    """The integer point v = (L, m1, m2, m3) of DP that the slice layer takes."""
    return dunkl_scale((DP.mu1, DP.mu2, DP.mu3))


V0, V1, V_NEG = point(DP0), point(DP1), point(DP_NEG)

# i and -i for the Poly3 reference, whose coefficients are GRats.
GRAT_I, GRAT_MINUS_I = GRat(Fraction(0), Fraction(1)), GRat(Fraction(0), Fraction(-1))

X1 = Poly3.monomial((1, 0, 0))
X2 = Poly3.monomial((0, 1, 0))
X3 = Poly3.monomial((0, 0, 1))
ONE3 = Poly3.monomial((0, 0, 0))

# The Pauli matrices, basis (up, down).
SIGMAS = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def slices(v, maxdeg):
    return [symmetry_generators(v, d) for d in range(maxdeg + 1)]


def exponents(degree: int) -> list[tuple[int, int, int]]:
    """The monomials x1^a x2^b x3^c of one degree, ordered by (a, b)."""
    return [(a, b, degree - a - b)
            for a in range(degree + 1) for b in range(degree + 1 - a)]


def grat_linop(cols: list[dict[int, GRat]]) -> LinOp:
    """The ``LinOp`` of columns of nonzero GRat entries, all real or all
    purely imaginary: ``LinOp.make`` of their real parts, or ``times_i``
    of that of their imaginary parts."""
    entries = [c for col in cols for c in col.values()]
    imag = any(c.im for c in entries)
    assert not any(c.re if imag else c.im for c in entries)
    op = LinOp.make({r: c.im if imag else c.re for r, c in col.items()} for col in cols)
    return op.times_i() if imag else op


def scalar_slice(degree: int, op) -> LinOp:
    """Oracle: the matrix of a degree-preserving ``Poly3`` map on the
    polynomials of one degree, applied monomial by monomial.

    Basis vector m is the m-th monomial x1^a x2^b x3^c, ordered by (a, b).
    """
    exps = exponents(degree)
    pos = {e: n for n, e in enumerate(exps)}
    return grat_linop([{pos[e]: c for e, c in op(Poly3.monomial(m)).terms.items()}
                       for m in exps])


def numerators(op: LinOp) -> np.ndarray:
    """den * op as a dense complex array; exact for the small integer
    numerators of these slices."""
    out = np.zeros((len(op), len(op)), dtype=complex)
    for j, col in enumerate(op.nums):
        for i, x in col.items():
            out[i, j] = 1j ** op.phase * x
    return out


def to_i_x2_basis(degree: int, a: np.ndarray) -> np.ndarray:
    """A matrix on the monomials x1^a x2^b x3^c of one degree (spin the
    fast index when ``a`` acts on spinors) rewritten in the basis
    x1^a (i x2)^b x3^c: conjugated by diag(i^b), so entry (r, c) is
    multiplied by i^(b_c - b_r).  Exact on entries that are small
    Gaussian integers."""
    d = np.array([[1, 1j, -1, -1j][b % 4] for _, b, _ in exponents(degree)])
    d = np.repeat(d, len(a) // len(d))
    return np.conj(d)[:, None] * a * d[None, :]


def degrees(p: Poly3) -> set[int]:
    return {sum(e) for e in p.terms}


class TestPoly3:
    def test_zero_coefficients_dropped(self):
        assert not Poly3.make({(1, 0, 0): GRat(Fraction(0), Fraction(0))}).terms

    def test_total_degree(self):
        assert degrees(Poly3.make({})) == set()
        assert degrees(X1 + var_mul(2, X2)) == {1, 2}

    def test_reflect(self):
        assert reflect(1, X1) == X1.scale(GRat(Fraction(-1), Fraction(0)))
        assert reflect(1, X2) == X2


class TestDunklPartial:
    def test_even_power(self):
        assert dunkl_partial(DP1, 1, var_mul(1, X1)) == \
            X1.scale(GRat(Fraction(2), Fraction(0)))

    def test_odd_power(self):
        assert dunkl_partial(DP1, 1, X1) == \
            ONE3.scale(GRat(Fraction(1 + 2 * DP1.mu1), Fraction(0)))

    def test_mixed(self):
        assert dunkl_partial(DP1, 2, var_mul(1, X2)) == \
            X1.scale(GRat(Fraction(1 + 2 * DP1.mu2), Fraction(0)))


class TestAngularMomentum:
    def test_j3_on_x1(self):
        # J3 x1 = i (1 + 2 mu1) x2; the classical i x2 at mu = 0.
        assert angular_momentum(DP1, 3, X1) == \
            X2.scale(GRAT_I).scale(GRat(Fraction(1 + 2 * DP1.mu1), Fraction(0)))
        assert angular_momentum(DP0, 3, X1) == X2.scale(GRAT_I)

    def test_j3_on_x3(self):
        assert not angular_momentum(DP1, 3, X3).terms

    def test_kills_constants(self):
        assert not angular_momentum(DP1, 1, ONE3).terms

    def test_degree_preserved(self):
        p = var_mul(1, var_mul(2, X3))
        assert degrees(angular_momentum(DP1, 2, p)) == {3}

    @pytest.mark.parametrize("DP", [DP0, DP1])
    def test_commutators(self, DP):
        v = point(DP)
        assert jj_commutator_check(v, slices(v, 5)).passed


class TestSliceGenerators:
    """The spinor slice matrices against the Poly3 reference: scaled by L,
    lifted to the spinor basis 2 m + s by np.kron and rewritten in the
    basis x1^a (i x2)^b x3^c by ``to_i_x2_basis``."""

    def test_scale(self):
        assert (V0[0], V1[0], V_NEG[0]) == (2, 12, 210)
        assert V_NEG[1:] == (-70, 84, -90)
        assert dunkl_scale((Fraction(1, 5), Fraction(2, 7), Fraction(5, 9)))[0] == 630

    @pytest.mark.parametrize("DP", [DP0, DP1, DP_NEG], ids=["mu0", "mu1", "mu_neg"])
    @pytest.mark.parametrize("degree", range(7))
    def test_match_poly3_reference(self, DP, degree):
        v = point(DP)
        g = symmetry_generators(v, degree)

        def assert_lift(got: LinOp, scalar: LinOp, spin: np.ndarray, factor=1):
            # got = factor * scalar ⊗ spin in the (i x2)^b basis, integer.
            scaled = lincomb((factor, scalar))
            assert got.den == scaled.den == 1
            assert np.array_equal(
                numerators(got),
                to_i_x2_basis(degree, np.kron(numerators(scaled), spin)))

        one = scalar_slice(degree, lambda p: p)
        assert_lift(g["1"], one, np.eye(2))
        for i in (1, 2, 3):
            assert_lift(g[f"J{i}"],
                        scalar_slice(degree, lambda p: angular_momentum(DP, i, p)),
                        np.eye(2), v[0])
            assert_lift(g[f"R{i}"], scalar_slice(degree, lambda p: reflect(i, p)),
                        np.eye(2))
            assert_lift(g[f"sigma{i}"], one, SIGMAS[i - 1])

    @pytest.mark.parametrize("DP", [DP0, DP1, DP_NEG], ids=["mu0", "mu1", "mu_neg"])
    @pytest.mark.parametrize("degree", range(7))
    def test_dunkl_slice_matches_poly3_reference(self, DP, degree):
        # The nine hops L x_a D_b and the three R_a that the spinor slice
        # and the tensor-product slice are built from.
        v = point(DP)
        exps, hop, R = dunkl_slice(v[0], v[1:], degree)
        assert exps == exponents(degree)
        for a in (1, 2, 3):
            assert R[a - 1] == scalar_slice(degree, lambda p: reflect(a, p))
            for b in (1, 2, 3):
                want = scalar_slice(
                    degree, lambda p: var_mul(a, dunkl_partial(DP, b, p)))
                assert hop(a - 1, b - 1) == lincomb((v[0], want)), (a, b)

    def test_negative_mu_reaches_the_matrices(self):
        # J3 x1 = i (1 + 2 mu1) x2: 1/3 i at mu1 = -1/3 (x2 is monomial 1
        # of the degree-1 slice, x1 monomial 2).  Times L = 210, and
        # i x2 / i = x2 in the (i x2) basis: the entry is 210 / 3 = 70.
        ref = angular_momentum(DP_NEG, 3, X1)
        assert ref == X2.scale(GRat(Fraction(0), Fraction(1, 3)))
        entry = ref.terms[(0, 1, 0)].scale(Fraction(V_NEG[0])) * GRAT_MINUS_I
        assert entry == GRat(Fraction(70), Fraction(0))
        j3 = symmetry_generators(V_NEG, 1)["J3"]
        assert (j3.nums[spinor(2, 0)], j3.den, j3.phase) == ({spinor(1, 0): entry.re}, 1, 0)

    @pytest.mark.parametrize("DP", [DP0, DP1, DP_NEG], ids=["mu0", "mu1", "mu_neg"])
    @pytest.mark.parametrize("degree", range(7))
    def test_integer_matrices_with_one_block(self, DP, degree):
        # J2, sigma2, M2 and X2 are imaginary, the rest real; a zero
        # matrix (J_i on degree 0) is real.
        imaginary = {"J2", "sigma2", "M2", "X2"}
        for name, op in symmetry_generators(point(DP), degree).items():
            assert op.den == 1, name
            assert op.phase == (name in imaginary and any(op.nums)), name


class TestSpinorLayer:
    def test_pauli_relations(self):
        assert pauli_layer_check().passed

    def test_sigma3(self):
        assert PAULI[3] == LinOp.make([{0: Fraction(1)}, {1: Fraction(-1)}])
        # On a spinor slice sigma_3 keeps up components and negates down ones.
        sigma3 = symmetry_generators(V1, 1)["sigma3"]
        assert sigma3 == LinOp.make({b: Fraction((-1) ** b)} for b in range(6))


# Basis index of monomial m (degree 1: x3, x2, x1) with spin s (0 up, 1 down).
def spinor(m, s):
    return 2 * m + s


class TestGamma:
    def test_constant_spinor_eigenvalue(self):
        # Gamma is mu1 + mu2 + mu3 on constant spinors; "Gamma" is L Gamma.
        musum = DP1.mu1 + DP1.mu2 + DP1.mu3
        gamma = symmetry_generators(V1, 0)["Gamma"]
        assert gamma == LinOp.make([{spinor(0, 0): V1[0] * musum},
                                    {spinor(0, 1): V1[0] * musum}])

    def test_frozen_degree_one(self):
        # Gamma (x1, 0) = (7/12 x1 + 3/2 i x2, 3/2 x3).  "Gamma" is L Gamma
        # with L = 12, and the entry in row x2 is multiplied by i^(0 - 1)
        # = -i in the (i x2) basis.
        x3, x2, x1 = range(3)
        frozen = {
            spinor(x1, 0): GRat(Fraction(7, 12), Fraction(0)),
            spinor(x2, 0): GRat(Fraction(0), Fraction(3, 2)),
            spinor(x3, 1): GRat(Fraction(3, 2), Fraction(0)),
        }
        to_basis = {spinor(x1, 0): GRAT_ONE, spinor(x2, 0): GRAT_MINUS_I,
                    spinor(x3, 1): GRAT_ONE}
        want = {r: c.scale(Fraction(V1[0])) * to_basis[r] for r, c in frozen.items()}
        assert want == {spinor(x1, 0): GRat(Fraction(7), Fraction(0)),
                        spinor(x2, 0): GRat(Fraction(18), Fraction(0)),
                        spinor(x3, 1): GRat(Fraction(18), Fraction(0))}
        gamma = symmetry_generators(V1, 1)["Gamma"]
        assert (gamma.nums[spinor(x1, 0)], gamma.den, gamma.phase) == (
            {r: c.re for r, c in want.items()}, 1, 0)

    def test_matrix_oracle_degree_one(self):
        # Independent complex-matrix build of Gamma on the degree-1 slice,
        # basis (x1, x2, x3) x (up, down).
        mus = [float(DP1.mu1), float(DP1.mu2), float(DP1.mu3)]
        jmats = []
        for i, (j, k) in enumerate([(1, 2), (2, 0), (0, 1)]):
            m = np.zeros((3, 3), dtype=complex)
            # (x_j D_k - x_k D_j) x_l
            m[j, k] = 1 + 2 * mus[k]
            m[k, j] = -(1 + 2 * mus[j])
            jmats.append(-1j * m)
        gamma = sum(np.kron(jm, s) for jm, s in zip(jmats, SIGMAS))
        for i in range(3):
            refl = np.eye(3)
            refl[i, i] = -1
            gamma = gamma + mus[i] * np.kron(refl, np.eye(2))

        # "Gamma" is L Gamma in the basis (x1, i x2, x3) x (up, down):
        # scale by L and conjugate by diag(1, i, 1) ⊗ 1_2.
        d = np.kron(np.diag([1, 1j, 1]), np.eye(2))
        gamma = V1[0] * np.linalg.inv(d) @ gamma @ d

        # The exact slice matrix orders the monomials x3, x2, x1, with spin
        # as the fast index; pos maps its basis index to the oracle's.
        exact = symmetry_generators(V1, 1)["Gamma"]
        pos = [2 * (2 - m) + spin for m in range(3) for spin in (0, 1)]
        got = np.zeros((6, 6), dtype=complex)
        got[np.ix_(pos, pos)] = numerators(exact) / exact.den
        assert np.allclose(got, gamma, atol=1e-12)

    @pytest.mark.parametrize("DP", [DP0, DP1])
    def test_square_identity(self, DP):
        v = point(DP)
        assert gamma_square_identity(v, slices(v, 5)).passed


class TestSymmetryAlgebra:
    @pytest.mark.parametrize("DP", [DP0, DP1])
    def test_full_report(self, DP):
        v = point(DP)
        report = symmetry_check(v, slices(v, 4))
        assert report.passed, report.summary()

    def test_y_squared_identity(self):
        for d in range(4):
            g = symmetry_generators(V1, d)
            assert g["Y"] @ g["Y"] == g["1"]
            assert g["Y"] == lincomb(((-1) ** d, g["1"]))

    def test_mu_zero_k_relations_have_no_central_term(self):
        # At mu = 0: {K1,K2} = K3 exactly (all central terms vanish); the
        # generators are L K_i with L = 2.
        for d in range(4):
            g = symmetry_generators(V0, d)
            assert not lincomb((1, g["K1"], g["K2"]), (1, g["K2"], g["K1"]),
                               (-V0[0], g["K3"]))

    def test_k_relations_central_term_is_nonzero(self):
        # For mu != 0 the checked central term is real: {K1,K2} - K3 is not
        # the zero matrix on any slice.
        for d in range(5):
            g = symmetry_generators(V1, d)
            assert lincomb((1, g["K1"], g["K2"]), (1, g["K2"], g["K1"]),
                           (-V1[0], g["K3"]))


class TestMutants:
    """Perturbed generators and relations that the symmetry report must reject."""

    @staticmethod
    def failed(report):
        return {(e.check, e.index) for e in report.entries if not e.ok}

    @staticmethod
    def flip_mr_term(monkeypatch, axis):
        """-m_axis R_axis in place of m_axis R_axis in L Gamma."""
        import bi_lab.dunkl_dirac as dd

        def gamma(v, g, _orig=dd.gamma_apply):
            return lincomb((1, _orig(v, g)), (-2 * v[axis], g[f"R{axis}"]))

        monkeypatch.setattr(dd, "gamma_apply", gamma)

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_flipped_mu_r_term_of_gamma(self, monkeypatch, axis):
        self.flip_mr_term(monkeypatch, axis)
        failed = self.failed(symmetry_check(V1, slices(V1, 3)))
        # On degree 0 R_i is the identity, so the flip only shifts Gamma.
        others = [j for j in (1, 2, 3) if j != axis]
        assert {(f"[Gamma, M{j}] = 0", d) for j in others for d in (1, 2, 3)} <= failed
        # Every term of Gamma commutes with every X_j, so these still hold.
        assert not any(check.startswith("[Gamma, X") for check, _ in failed)

    def test_flipped_m1_r1_term_fails_at_l_zero(self, monkeypatch):
        # At v = (0, 1, -2, 3) no mu gives, the flip breaks [Gamma, M_j]
        # for j != 1 off degree 0 and every [M_i, M_j] and {K_i, K_j}
        # relation on every slice; everything else still holds.
        self.flip_mr_term(monkeypatch, 1)
        v = (0, 1, -2, 3)
        pairs = ((1, 2), (2, 3), (3, 1))
        assert self.failed(symmetry_check(v, slices(v, 4))) == {
            *((f"[Gamma, M{j}] = 0", d) for j in (2, 3) for d in range(1, 5)),
            *((f"[M{i}, M{j}] relation", d) for i, j in pairs for d in range(5)),
            *((f"{{K{i}, K{j}}} = K{6 - i - j} + central", d)
              for i, j in pairs for d in range(5))}

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_pauli_factor_dropped_from_gamma(self, monkeypatch, axis):
        import bi_lab.dunkl_dirac as dd

        def gamma(v, g, _orig=dd.gamma_apply):
            j = g[f"J{axis}"]
            return lincomb((1, _orig(v, g)), (-1, g[f"sigma{axis}"], j), (1, j))

        monkeypatch.setattr(dd, "gamma_apply", gamma)
        if axis == 2:
            # J_2 is imaginary and sigma_2 J_2 real: the mutant Gamma is a
            # sum of real and imaginary matrices, which no LinOp stores.
            with pytest.raises(ValueError, match="real and imaginary"):
                slices(V1, 3)
            return
        failed = self.failed(symmetry_check(V1, slices(V1, 3)))
        assert {(f"[Gamma, X{j}] = 0", d) for j in (1, 2, 3) if j != axis
                for d in (1, 2, 3)} <= failed

    @staticmethod
    def source_mutant(name: str, old: str, new: str):
        """The check ``name`` of the module with the text ``old`` of its
        source, which occurs there once, replaced by ``new``."""
        import inspect

        import bi_lab.dunkl_dirac as dd

        source = inspect.getsource(getattr(dd, name))
        assert source.count(old) == 1
        namespace = dict(vars(dd))
        exec(source.replace(old, new), namespace)
        return namespace[name]

    def test_mm_relation_without_x_gamma_term(self):
        check = self.source_mutant("symmetry_check",
                                   '(-2 * v[k], ixk, gamma), (-2 * v[k] * v[0], ixk)',
                                   '(0, ixk, gamma), (0, ixk)')
        failed = self.failed(check(V1, slices(V1, 3)))
        assert failed == {(f"[M{i}, M{j}] relation", d)
                          for i, j in ((1, 2), (2, 3), (3, 1)) for d in range(4)}

    # For each relation checked times a power of L, one term of its residual
    # that carries a factor L, the same term with 1 in place of that L, and
    # per relation name the generator of that term.
    UNSCALED = {
        "jj_commutator_check": ("(-v[0], ijl)", "(-1, ijl)", {
            f"[J{j},J{k}] = i J{l}(1 + 2 mu{l} R{l})": f"J{l}"
            for j, k, l in ((1, 2, 3), (2, 3, 1), (3, 1, 2))}),
        "gamma_square_identity": ("(v[0], gamma)", "(1, gamma)", {
            "Gamma^2 + Gamma = J^2 - X + c": "Gamma"}),
        "symmetry_check:MM": ('(-v[0], g[f"M{k}"].times_i())', '(-1, g[f"M{k}"].times_i())', {
            f"[M{i}, M{j}] relation": f"M{k}"
            for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2))}),
        "symmetry_check:KK": ('(-v[0], g[f"K{k}"])', '(-1, g[f"K{k}"])', {
            f"{{K{i}, K{j}}} = K{k} + central": f"K{k}"
            for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2))}),
    }

    @pytest.mark.parametrize("DP", [DP1, DP_NEG], ids=["mu1", "mu_neg"])
    @pytest.mark.parametrize("relation", sorted(UNSCALED))
    def test_factor_l_dropped_from_one_term(self, DP, relation):
        # The relation then differs by (L - 1) times that term: it must
        # fail on exactly the slices where the term is nonzero.
        scaled, unscaled, terms = self.UNSCALED[relation]
        check = self.source_mutant(relation.split(":")[0], scaled, unscaled)
        v = point(DP)
        sl = slices(v, 3)
        want = {(name, d) for name, term in terms.items()
                for d, g in enumerate(sl) if g[term]}
        assert want
        assert self.failed(check(v, sl)) == want


# Integer points that no DiracParams gives: L = 0 (also the zero point),
# and L = 4, which is not the least even integer clearing m_i / L = 1/2.
@pytest.mark.parametrize("v", [(0, 1, -2, 3), (0, 0, 0, 0), (4, 2, 2, 2), (0, 5, 7, -1)],
                         ids=lambda v: ",".join(map(str, v)))
def test_reports_pass_at_integer_points(v):
    sl = slices(v, 4)
    for check in (jj_commutator_check, gamma_square_identity, symmetry_check):
        report = check(v, sl)
        assert report.passed and report.checked, report.summary()


# Odd L: the L/2 of L M_i is no integer.  Unrefused, these points failed
# 9, 33 and 31 entries of symmetry_check on slices 0..3 and raised nothing.
@pytest.mark.parametrize("v", [(1, 0, 0, 0), (3, 1, 1, 1), (1, 1, -2, 3)],
                         ids=lambda v: ",".join(map(str, v)))
def test_odd_l_is_refused(v):
    with pytest.raises(ValueError, match="odd"):
        slices(v, 3)


@given(st.lists(st.fractions(max_denominator=60), min_size=3, max_size=3))
def test_dunkl_scale_gives_even_l(mus):
    L = dunkl_scale(mus)[0]
    assert L > 0 and L % 2 == 0


def test_one_generator_build_per_slice(monkeypatch):
    import bi_lab.dunkl_dirac as dd

    calls = dict.fromkeys(("symmetry_generators", "gamma_apply", "dunkl_slice"), 0)
    for name in calls:
        def counted(*args, _orig=getattr(dd, name), _name=name):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(dd, name, counted)
    for _ in range(2):  # a second identical call does the same work again
        calls.update(dict.fromkeys(calls, 0))
        assert suite_dirac(seed=1, tuples=1, maxdeg=3).passed
        # One build of the generators, one Gamma and one set of hops and
        # reflections per slice 0..3.
        assert calls == {"symmetry_generators": 4, "gamma_apply": 4, "dunkl_slice": 4}


def test_each_relation_is_one_lincomb(monkeypatch):
    import bi_lab.dunkl_dirac as dd
    import bi_lab.linop as linop

    calls, products = 0, 0

    def counted_lincomb(*terms, _orig=linop.lincomb):
        nonlocal calls, products
        calls += 1
        products += sum(len(t) == 3 for t in terms)
        return _orig(*terms)

    sl = slices(V1, 3)
    monkeypatch.setattr(linop, "lincomb", counted_lincomb)
    monkeypatch.setattr(dd, "lincomb", counted_lincomb)
    # Each relation on each slice is one residual: one lincomb call per
    # recorded entry (@ is one lincomb too).
    for check, entries in ((jj_commutator_check, 3), (gamma_square_identity, 1),
                           (symmetry_check, 27)):
        calls = 0
        assert check(V1, sl).checked == calls == entries * len(sl)
    calls = 0
    assert pauli_layer_check().checked == calls == 18
    # Every sum, scaled matrix, product and residual of the Pauli layer and
    # of four slices is one lincomb call: 18 in the Pauli layer and 49 per
    # slice, 18 of the build and 31 of the relations; the 431 products are
    # 27 in the Pauli layer and 101 per slice.
    calls, products = 0, 0
    assert suite_dirac(seed=1, tuples=1, maxdeg=3).passed
    assert (calls, products) == (214, 431)
