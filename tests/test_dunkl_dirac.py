"""Dunkl-Dirac operator on S^2: exact identities and a matrix oracle."""

from fractions import Fraction

import numpy as np
import pytest

from bi_lab.dunkl_dirac import (
    DiracParams,
    Poly3,
    SpinorPoly3,
    angular_momentum,
    dunkl_partial,
    gamma_apply,
    gamma_square_identity,
    jj_commutator_check,
    pauli_layer_check,
    reflect,
    sigma_apply,
    slice_matrix,
    symmetry_check,
    symmetry_generators,
    var_mul,
)
from bi_lab.errors import DegenerateParameters
from bi_lab.exact import GRAT_I, GRAT_ZERO, grat_make
from bi_lab.linop import anticomm

DP1 = DiracParams.make(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))
DP0 = DiracParams.make(0, 0, 0)

X1 = Poly3.monomial((1, 0, 0))
X2 = Poly3.monomial((0, 1, 0))
X3 = Poly3.monomial((0, 0, 1))
ONE3 = Poly3.monomial((0, 0, 0))


class TestPoly3:
    def test_zero_coefficients_dropped(self):
        assert Poly3.make({(1, 0, 0): grat_make(0)}).is_zero()

    def test_total_degree(self):
        assert Poly3.zero().total_degree() == -1
        assert (X1 + var_mul(2, X2)).total_degree() == 2

    def test_reflect(self):
        assert reflect(1, X1) == X1.scale_rat(-1)
        assert reflect(1, X2) == X2


class TestDunklPartial:
    def test_even_power(self):
        assert dunkl_partial(DP1, 1, var_mul(1, X1)) == X1.scale_rat(2)

    def test_odd_power(self):
        assert dunkl_partial(DP1, 1, X1) == ONE3.scale_rat(1 + 2 * DP1.mu1)

    def test_mixed(self):
        assert dunkl_partial(DP1, 2, var_mul(1, X2)) == \
            X1.scale_rat(1 + 2 * DP1.mu2)

    def test_params_validated(self):
        with pytest.raises(DegenerateParameters):
            DiracParams.make(Fraction(-1, 2), 0, 0)


class TestAngularMomentum:
    def test_j3_on_x1(self):
        # J3 x1 = i (1 + 2 mu1) x2; the classical i x2 at mu = 0.
        assert angular_momentum(DP1, 3, X1) == \
            X2.scale(GRAT_I).scale_rat(1 + 2 * DP1.mu1)
        assert angular_momentum(DP0, 3, X1) == X2.scale(GRAT_I)

    def test_j3_on_x3(self):
        assert angular_momentum(DP1, 3, X3).is_zero()

    def test_kills_constants(self):
        assert angular_momentum(DP1, 1, ONE3).is_zero()

    def test_degree_preserved(self):
        p = var_mul(1, var_mul(2, X3))
        assert angular_momentum(DP1, 2, p).total_degree() == 3

    @pytest.mark.parametrize("DP", [DP0, DP1])
    def test_commutators(self, DP):
        assert jj_commutator_check(DP, 5).passed


class TestSpinorLayer:
    def test_pauli_relations(self):
        assert pauli_layer_check().passed

    def test_sigma3(self):
        s = SpinorPoly3(X1, X2)
        assert sigma_apply(3, s) == SpinorPoly3(X1, X2.scale_rat(-1))


class TestGamma:
    def test_constant_spinor_eigenvalue(self):
        s = SpinorPoly3(ONE3, Poly3.zero())
        musum = DP1.mu1 + DP1.mu2 + DP1.mu3
        assert gamma_apply(DP1, s) == s.scale_rat(musum)

    def test_frozen_degree_one(self):
        s = SpinorPoly3(X1, Poly3.zero())
        got = gamma_apply(DP1, s)
        want = SpinorPoly3(
            X1.scale_rat(Fraction(7, 12)) + X2.scale(GRAT_I).scale_rat(Fraction(3, 2)),
            X3.scale_rat(Fraction(3, 2)),
        )
        assert got == want

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
        sigmas = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        gamma = sum(np.kron(jm, s) for jm, s in zip(jmats, sigmas))
        for i in range(3):
            refl = np.eye(3)
            refl[i, i] = -1
            gamma = gamma + mus[i] * np.kron(refl, np.eye(2))

        # The exact slice matrix orders the monomials x3, x2, x1, with spin
        # as the fast index; pos maps its basis index to the oracle's.
        exact = slice_matrix(1, lambda s: gamma_apply(DP1, s))
        pos = [2 * (2 - m) + spin for m in range(3) for spin in (0, 1)]
        got = np.zeros((6, 6), dtype=complex)
        for col, entries in enumerate(exact.cols):
            for row, c in entries.items():
                got[pos[row], pos[col]] = float(c.re) + 1j * float(c.im)
        assert np.allclose(got, gamma, atol=1e-12)

    @pytest.mark.parametrize("DP", [DP0, DP1])
    def test_square_identity(self, DP):
        assert gamma_square_identity(DP, 5).passed


class TestSymmetryAlgebra:
    @pytest.mark.parametrize("DP", [DP0, DP1])
    def test_full_report(self, DP):
        report = symmetry_check(DP, 4)
        assert report.passed, report.summary()

    def test_y_squared_identity(self):
        for d in range(4):
            g = symmetry_generators(DP1, d)
            assert g["Y"] @ g["Y"] == g["1"]
            assert g["Y"] == g["1"].scale(grat_make((-1) ** d))

    def test_mu_zero_k_relations_have_no_central_term(self):
        # At mu = 0: {K1,K2} = K3 exactly (all central terms vanish).
        for d in range(4):
            g = symmetry_generators(DP0, d)
            assert anticomm(g["K1"], g["K2"]) == g["K3"]

    def test_k_relations_central_term_is_nonzero(self):
        # For mu != 0 the checked central term is real: {K1,K2} - K3 is not
        # the zero matrix on any slice.
        for d in range(5):
            g = symmetry_generators(DP1, d)
            assert anticomm(g["K1"], g["K2"]) - g["K3"] != g["1"].scale(GRAT_ZERO)
