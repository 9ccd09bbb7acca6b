"""sl_{-1}(2) modules, osp(1|2) cross-check, 1D Dunkl realization, and the
one mu guard of every parameter tuple."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import bi_lab
from bi_lab.dunkl_dirac import DiracParams
from bi_lab.errors import BILabError
from bi_lab.exact import HALF, rat_str
from bi_lab.linop import LinOp
from bi_lab.poly import Poly
from bi_lab.racah import RacahParams
from bi_lab.sl1 import (
    ModuleParams,
    dunkl_commutator_check,
    dunkl_matrix,
    module_bilinear_check,
    module_matrices,
    osp_casimir_check,
)
from poly_oracle import dunkl_apply


class TestModuleParams:
    def test_make_validates_epsilon(self):
        with pytest.raises(BILabError, match="epsilon"):
            ModuleParams.make(0, Fraction(1, 2))

    def test_rho_squared(self):
        # J+ J- |n> = rho_n^2 |n> in the gauge J+ = x, J- = D.
        x, D, _, _ = module_matrices(Fraction(1, 3), 4)
        assert x @ D == LinOp.make([{}, {1: 1 + Fraction(2, 3)}, {2: Fraction(2)},
                                    {3: 3 + Fraction(2, 3)}])


# The make of each parameter tuple, on its mu values, and their names.
MU_GUARDS = {
    "ModuleParams": (lambda *mus: ModuleParams.make(1, *mus), ("mu",)),
    "RacahParams": (lambda *mus: RacahParams.make(*mus, 2), ("mu_1", "mu_2", "mu_3")),
    "DiracParams": (DiracParams.make, ("mu_1", "mu_2", "mu_3")),
}


@pytest.mark.parametrize("bad", [-HALF, Fraction(-2, 3), Fraction(-3)], ids=str)
@pytest.mark.parametrize("tuple_name", list(MU_GUARDS))
def test_one_mu_guard(tuple_name, bad):
    """Every make rejects mu <= -1/2, naming the first offender as p/q, and
    keeps a mu just above -1/2."""
    make, names = MU_GUARDS[tuple_name]
    above = -HALF + Fraction(1, 10**6)
    for i, name in enumerate(names):
        mus = [above] * i + [bad] * (len(names) - i)  # offenders from position i on
        with pytest.raises(BILabError, match=f"^{name} = {rat_str(bad)} must exceed -1/2$"):
            make(*mus)
    params = make(*[above] * len(names))
    assert [getattr(params, name.replace("_", "")) for name in names] == [above] * len(names)


def test_mu_guard_is_raised_in_one_place():
    """The mu > -1/2 guard of every parameter tuple is ``sl1.checked_mu``:
    one raise in the package says "must exceed -1/2"."""
    root = Path(bi_lab.__file__).parent
    assert [path.name for path in sorted(root.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise) and "must exceed -1/2" in ast.unparse(node)
            ] == ["sl1.py"]


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("mu", [Fraction(0), Fraction(1, 3), Fraction(7, 2)])
class TestModuleRelations:
    def test_bilinear_relations(self, eps, mu):
        assert module_bilinear_check(ModuleParams.make(eps, mu),
                                     module_matrices(mu, 16 + 2)).passed

    def test_osp_casimir(self, eps, mu):
        # On the 18 states of the bilinear check, one entry per |n>, n <= 16.
        report = osp_casimir_check(ModuleParams.make(eps, mu), module_matrices(mu, 16 + 2))
        assert report.passed and report.checked == 17


def test_one_module_build_per_tuple(monkeypatch):
    import bi_lab.sl1 as sl1
    import bi_lab.suites as suites

    sizes = []

    def counted(mu, n, _orig=sl1.module_matrices):
        sizes.append(n)
        return _orig(mu, n)
    monkeypatch.setattr(sl1, "module_matrices", counted)
    monkeypatch.setattr(suites, "module_matrices", counted)
    assert suites.suite_sl1(seed=1, tuples=3).passed
    # One build of |0>, ..., |13> shared by the bilinear and osp checks, and
    # one of 1, ..., x^13 in dunkl_commutator_check, per tuple.
    assert sizes == [14, 14] * 3


def test_bilinear_relations_fail_on_wrong_ladder(monkeypatch):
    # rho_n^2 one too large at odd n, through the odd entries of D, breaks
    # both ladder relations on every state.
    import bi_lab.sl1 as sl1

    monkeypatch.setattr(sl1, "dunkl_matrix",
                        lambda nu, n, _orig=sl1.dunkl_matrix: _orig(nu + Fraction(1, 2), n))
    report = module_bilinear_check(ModuleParams.make(1, Fraction(1, 3)),
                                   sl1.module_matrices(Fraction(1, 3), 16 + 2))
    assert report.checked == 3 * 17
    for name in ("{J+,J-} = 2 J0", "[J-,J+] = 1 - 2QR"):
        failed = [e.index for e in report.failures if e.check == name]
        assert failed == list(range(17))


class TestDunklRealization:
    def test_matrix_on_low_monomials(self):
        # D 1 = 0, D x = 1 + 2 nu and D x^2 = 2x at nu = 2/5.
        assert dunkl_matrix(Fraction(2, 5), 3) == LinOp.make([
            {}, {0: Fraction(9, 5)}, {1: Fraction(2)}])

    # -1/2 zeroes D x; the last nu has a 31-digit numerator.
    @pytest.mark.parametrize("nu", [
        Fraction(0), Fraction(2, 5), Fraction(3), Fraction(-1, 3), Fraction(-1, 2),
        Fraction(10**30 + 7, 999983)], ids=str)
    def test_matrix_matches_definition(self, nu):
        images = [dunkl_apply(nu, Poly.monomial(j)).coeffs for j in range(14)]
        for n in range(15):
            want = LinOp.make({i: c for i, c in enumerate(p) if c} for p in images[:n])
            assert dunkl_matrix(nu, n) == want

    @pytest.mark.parametrize("nu", [Fraction(0), Fraction(1, 4), Fraction(3)])
    def test_commutator(self, nu):
        assert dunkl_commutator_check(nu, 12).passed
