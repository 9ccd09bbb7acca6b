"""Dunkl-Dirac operator on the 2-sphere and its symmetry algebra.

Everything here is exact over the Gaussian rationals: trivariate
polynomials carry GRat coefficients, the imaginary unit enters through
the angular-momentum prefactor 1/i and the Pauli matrices, and no
tolerance appears anywhere in the module.

All operators in scope preserve total degree, so identities are checked
on graded slices: each operator becomes one exact matrix per slice of
degree-d spinors, and a relation holds on the full graded space when
lhs - rhs is the zero matrix on every slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import DegenerateParameters
from .exact import GRAT_I, GRAT_MINUS_I, GRAT_ONE, GRAT_ZERO, GRat, Rat, grat_make
from .linop import LinOp, anticomm, comm
from .report import VerificationReport

Exponent = tuple[int, int, int]


@dataclass(frozen=True)
class Poly3:
    """Trivariate polynomial: exponent triple -> Gaussian-rational coeff."""

    terms: dict[Exponent, GRat] = field(default_factory=dict)

    @staticmethod
    def make(terms: dict[Exponent, GRat]) -> "Poly3":
        return Poly3({e: c for e, c in terms.items() if c})

    @staticmethod
    def monomial(e: Exponent, c: GRat | int = 1) -> "Poly3":
        if isinstance(c, int):
            c = grat_make(c)
        return Poly3.make({e: c})

    @staticmethod
    def zero() -> "Poly3":
        return Poly3({})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Poly3") -> "Poly3":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return Poly3(out)

    def __sub__(self, other: "Poly3") -> "Poly3":
        return self + other.scale(grat_make(-1))

    def scale(self, c: GRat) -> "Poly3":
        if not c:
            return Poly3({})
        return Poly3({e: x * c for e, x in self.terms.items()})

    def scale_rat(self, c: Rat | int) -> "Poly3":
        return self.scale(grat_make(Fraction(c)))

    def total_degree(self) -> int:
        """-1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly3) and self.terms == other.terms


def var_mul(axis: int, p: Poly3) -> Poly3:
    """Multiply by the coordinate x_axis (axis in 1..3)."""
    i = axis - 1
    out = {}
    for e, c in p.terms.items():
        ne = list(e)
        ne[i] += 1
        out[tuple(ne)] = c
    return Poly3(out)


def reflect(axis: int, p: Poly3) -> Poly3:
    """Sign flip of the coordinate x_axis."""
    i = axis - 1
    return Poly3.make(
        {e: (c if e[i] % 2 == 0 else -c) for e, c in p.terms.items()}
    )


@dataclass(frozen=True)
class DiracParams:
    mu1: Rat
    mu2: Rat
    mu3: Rat

    @staticmethod
    def make(mu1, mu2, mu3) -> "DiracParams":
        mus = tuple(Fraction(m) for m in (mu1, mu2, mu3))
        if any(m <= Fraction(-1, 2) for m in mus):
            raise DegenerateParameters("each mu_i must exceed -1/2")
        return DiracParams(*mus)

    def mu(self, axis: int) -> Rat:
        return (self.mu1, self.mu2, self.mu3)[axis - 1]


def dunkl_partial(DP: DiracParams, axis: int, p: Poly3) -> Poly3:
    """D_i = d/dx_i + (mu_i/x_i)(1 - R_i), monomial by monomial.

    On x_i^a the reflection difference contributes 0 (a even) or
    2 mu_i x_i^(a-1) (a odd), so the division by x_i is always exact.
    """
    i = axis - 1
    mu = DP.mu(axis)
    acc: dict[Exponent, GRat] = {}
    for e, c in p.terms.items():
        a = e[i]
        if a == 0:
            continue
        factor = Fraction(a) if a % 2 == 0 else a + 2 * mu
        if factor == 0:
            continue
        ne = list(e)
        ne[i] -= 1
        key = tuple(ne)
        add = c.scale(factor)
        prev = acc.get(key)
        acc[key] = add if prev is None else prev + add
    return Poly3.make(acc)


_CYCLIC = {1: (2, 3), 2: (3, 1), 3: (1, 2)}


def angular_momentum(DP: DiracParams, axis: int, p: Poly3) -> Poly3:
    """J_i = (1/i)(x_j D_k - x_k D_j) with (i j k) cyclic; degree preserving."""
    j, k = _CYCLIC[axis]
    raw = var_mul(j, dunkl_partial(DP, k, p)) - var_mul(k, dunkl_partial(DP, j, p))
    return raw.scale(GRAT_MINUS_I)  # 1/i = -i


def _record_slices(report: VerificationReport, maxdeg: int, relations) -> None:
    """Record relation by relation, each on slices 0..maxdeg, whether
    lhs - rhs is zero for the (name, lhs, rhs) that ``relations(d)`` yields
    in the same order for every slice d."""
    per_slice = [[(name, lhs == rhs) for name, lhs, rhs in relations(d)]
                 for d in range(maxdeg + 1)]
    for row in zip(*per_slice):
        for d, (name, ok) in enumerate(row):
            report.record(name, d, ok)


# ---------------------------------------------------------------------------
# spinor layer

@dataclass(frozen=True)
class SpinorPoly3:
    up: Poly3
    down: Poly3

    @staticmethod
    def zero() -> "SpinorPoly3":
        return SpinorPoly3(Poly3.zero(), Poly3.zero())

    def __add__(self, other: "SpinorPoly3") -> "SpinorPoly3":
        return SpinorPoly3(self.up + other.up, self.down + other.down)

    def scale_rat(self, c: Rat | int) -> "SpinorPoly3":
        return SpinorPoly3(self.up.scale_rat(c), self.down.scale_rat(c))

    def map_components(self, f: Callable[[Poly3], Poly3]) -> "SpinorPoly3":
        return SpinorPoly3(f(self.up), f(self.down))


def sigma_apply(axis: int, s: SpinorPoly3) -> SpinorPoly3:
    """Action of the fixed Pauli matrix on the spinor index."""
    if axis == 1:
        return SpinorPoly3(s.down, s.up)
    if axis == 2:
        return SpinorPoly3(s.down.scale(GRAT_MINUS_I), s.up.scale(GRAT_I))
    if axis == 3:
        return SpinorPoly3(s.up, s.down.scale(grat_make(-1)))
    raise ValueError(f"axis must be 1..3, got {axis}")


def pauli_layer_check() -> VerificationReport:
    """sigma_i sigma_j = i eps_ijk sigma_k + delta_ij and the Clifford
    relations, verified once on the 2x2 Gaussian-rational matrices."""
    report = VerificationReport("Pauli layer")
    sigma = {i: slice_matrix(0, lambda s: sigma_apply(i, s)) for i in (1, 2, 3)}
    one = LinOp.identity(2, GRAT_ONE)
    eps = {(1, 2): 3, (2, 3): 1, (3, 1): 2, (2, 1): -3, (3, 2): -1, (1, 3): -2}
    for i in range(1, 4):
        for j in range(1, 4):
            k = eps.get((i, j), 0)
            rhs = sigma[abs(k)].scale(GRAT_I if k > 0 else GRAT_MINUS_I) if k else one
            want = one.scale(grat_make(2 if i == j else 0))
            prod, anti = sigma[i] @ sigma[j], anticomm(sigma[i], sigma[j])
            for b in (0, 1):  # one entry per basis spinor
                report.record("sigma_i sigma_j = i eps sigma_k + delta", (i, j),
                              prod.cols[b] == rhs.cols[b])
                report.record("{sigma_i,sigma_j} = 2 delta", (i, j),
                              anti.cols[b] == want.cols[b])
    return report


def gamma_apply(DP: DiracParams, s: SpinorPoly3) -> SpinorPoly3:
    """Gamma = sigma . J + mu . R (degree preserving)."""
    out = SpinorPoly3.zero()
    for axis in (1, 2, 3):
        ji = s.map_components(lambda p, a=axis: angular_momentum(DP, a, p))
        out = out + sigma_apply(axis, ji)
        ri = s.map_components(lambda p, a=axis: reflect(a, p))
        out = out + ri.scale_rat(DP.mu(axis))
    return out


def slice_matrix(degree: int, op: Callable[[SpinorPoly3], SpinorPoly3]) -> LinOp:
    """Matrix of a degree-preserving op on the spinors of one degree.

    Basis vector 2 m + s is the m-th monomial x1^a x2^b x3^c, ordered by
    (a, b), in the up (s = 0) or down (s = 1) component.
    """
    exps = [(a, b, degree - a - b)
            for a in range(degree + 1) for b in range(degree + 1 - a)]
    pos = {e: n for n, e in enumerate(exps)}
    cols = []
    for m in exps:
        mono, zero = Poly3.monomial(m), Poly3.zero()
        for out in (op(SpinorPoly3(mono, zero)), op(SpinorPoly3(zero, mono))):
            cols.append({2 * pos[e] + spin: c
                         for spin, part in enumerate((out.up, out.down))
                         for e, c in part.terms.items()})
    return LinOp.make(cols)


def _angular_slice(DP: DiracParams, degree: int) -> dict[str, LinOp]:
    """The identity "1" and J_i, R_i as "J1".."R3" on one spinor slice."""
    g = {}
    for i in (1, 2, 3):
        g[f"J{i}"] = slice_matrix(degree, lambda s: s.map_components(
            lambda p: angular_momentum(DP, i, p)))
        g[f"R{i}"] = slice_matrix(degree, lambda s: s.map_components(
            lambda p: reflect(i, p)))
    g["1"] = LinOp.identity(len(g["J1"].cols), GRAT_ONE)
    return g


def jj_commutator_check(DP: DiracParams, maxdeg: int) -> VerificationReport:
    """[J_j, J_k] = i J_l (1 + 2 mu_l R_l) on all monomials up to maxdeg.

    Only the cyclic index reading (j k l) is checked; the report notes
    that it holds.
    """
    report = VerificationReport("Dunkl angular-momentum commutators")

    def relations(d: int):
        g = _angular_slice(DP, d)
        for jj, kk, ll in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            rhs = g[f"J{ll}"] @ (g["1"] + g[f"R{ll}"].scale(grat_make(2 * DP.mu(ll))))
            yield (f"[J{jj},J{kk}] = i J{ll}(1 + 2 mu{ll} R{ll})",
                   comm(g[f"J{jj}"], g[f"J{kk}"]), rhs.scale(GRAT_I))

    _record_slices(report, maxdeg, relations)
    if report.passed:
        report.note("cyclic index reading [J_j, J_k] = i eps_jkl J_l (1+2 mu_l R_l) holds")
    return report


def gamma_square_identity(DP: DiracParams, maxdeg: int) -> VerificationReport:
    """Gamma^2 + Gamma = J^2 - X + (sum mu)(sum mu + 1).

    This is the sphere-Laplacian-free combination of the two quadratic
    identities: X collects the reflection block that distinguishes J^2
    from the (shifted) spherical operator.
    """
    report = VerificationReport("Gamma squared identity")
    musum = DP.mu1 + DP.mu2 + DP.mu3

    def relations(d: int):
        g = _angular_slice(DP, d)
        x = g["1"].scale(grat_make(musum))
        for i, j in ((1, 2), (2, 3), (1, 3)):
            x = x + (g["1"] - g[f"R{i}"] @ g[f"R{j}"]).scale(
                grat_make(2 * DP.mu(i) * DP.mu(j)))
        for i in (1, 2, 3):
            x = x - g[f"R{i}"].scale(grat_make(DP.mu(i)))
        jsq = g["J1"] @ g["J1"] + g["J2"] @ g["J2"] + g["J3"] @ g["J3"]
        gamma = slice_matrix(d, lambda s: gamma_apply(DP, s))
        yield ("Gamma^2 + Gamma = J^2 - X + c", gamma @ gamma + gamma,
               jsq - x + g["1"].scale(grat_make(musum * (musum + 1))))

    _record_slices(report, maxdeg, relations)
    return report


def symmetry_generators(DP: DiracParams, degree: int) -> dict[str, LinOp]:
    """Gamma and its symmetries as matrices on one spinor slice.

    Adds to ``_angular_slice``: "Gamma", and for (i j k) cyclic
    "M{i}" = J_i + sigma_i (mu_j R_j + mu_k R_k + 1/2), "X{i}" = sigma_i R_i,
    "K{i}" = M_i X_i Y, with "Y" = R1 R2 R3.
    """
    g = _angular_slice(DP, degree)
    g["Gamma"] = slice_matrix(degree, lambda s: gamma_apply(DP, s))
    g["Y"] = g["R1"] @ g["R2"] @ g["R3"]
    for i, (j, k) in _CYCLIC.items():
        sigma = slice_matrix(degree, lambda s: sigma_apply(i, s))
        inner = g[f"R{j}"].scale(grat_make(DP.mu(j))) \
            + g[f"R{k}"].scale(grat_make(DP.mu(k))) \
            + g["1"].scale(grat_make(Fraction(1, 2)))
        g[f"M{i}"] = g[f"J{i}"] + sigma @ inner
        g[f"X{i}"] = sigma @ g[f"R{i}"]
        g[f"K{i}"] = g[f"M{i}"] @ g[f"X{i}"] @ g["Y"]
    return g


def symmetry_check(DP: DiracParams, maxdeg: int) -> VerificationReport:
    """Symmetries of Gamma and their Bannai-Ito subalgebra, all exact.

    The K_i anticommutators are checked in their cyclic reading, with
    central term 2 mu_k (Gamma + 1) Y + 2 mu_i mu_j for {K_i, K_j}; the
    report records that this reading is the one that holds.
    """
    report = VerificationReport("Dunkl-Dirac symmetry algebra")

    def relations(d: int):
        g = symmetry_generators(DP, d)
        one, gamma, y = g["1"], g["Gamma"], g["Y"]
        zero = one.scale(GRAT_ZERO)
        for i in (1, 2, 3):
            m = g[f"M{i}"]
            yield f"[Gamma, M{i}] = 0", comm(gamma, m), zero
            yield f"[Gamma, X{i}] = 0", comm(gamma, g[f"X{i}"]), zero
            yield f"[M{i}, X{i}] = 0", comm(m, g[f"X{i}"]), zero
            for j in (1, 2, 3):
                if j != i:
                    yield f"{{M{i}, X{j}}} = 0", anticomm(m, g[f"X{j}"]), zero

        # Y is central and squares to one.
        yield ("Y = -i X1 X2 X3 = R1 R2 R3", g["X1"] @ g["X2"] @ g["X3"],
               y.scale(GRAT_I))
        yield "Y^2 = 1", y @ y, one
        yield "[Y, Gamma] = 0", comm(y, gamma), zero
        for i in (1, 2, 3):
            yield f"[Y, M{i}] = 0", comm(y, g[f"M{i}"]), zero

        # [M_i, M_j] = i eps_ijk (M_k + 2 mu_k (Gamma+1) X_k) + mu_i mu_j [X_i, X_j]
        # (the realization fixes the coefficient of [X_i, X_j] to mu_i mu_j;
        # 2 mu_i mu_j fails already on constant spinors)
        for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            central = g[f"M{k}"] + (g[f"X{k}"] @ (gamma + one)).scale(
                grat_make(2 * DP.mu(k)))
            xcomm = comm(g[f"X{i}"], g[f"X{j}"])
            yield (f"[M{i}, M{j}] relation", comm(g[f"M{i}"], g[f"M{j}"]),
                   central.scale(GRAT_I)
                   + xcomm.scale(grat_make(DP.mu(i) * DP.mu(j))))

        # The Bannai-Ito subalgebra of the K_i = M_i X_i Y.
        for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            rhs = g[f"K{k}"] + (y @ (gamma + one)).scale(grat_make(2 * DP.mu(k))) \
                + one.scale(grat_make(2 * DP.mu(i) * DP.mu(j)))
            yield (f"{{K{i}, K{j}}} = K{k} + central",
                   anticomm(g[f"K{i}"], g[f"K{j}"]), rhs)

    _record_slices(report, maxdeg, relations)
    if report.passed:
        report.note(
            "cyclic reading holds: {K_i,K_j} = K_k + 2 mu_k (Gamma+1) Y + 2 mu_i mu_j"
        )
    return report
