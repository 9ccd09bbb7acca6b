"""Dunkl-Dirac operator on the 2-sphere and its symmetry algebra.

All operators in scope preserve total degree, so identities are checked
exactly, with no tolerance, on graded slices: each operator becomes one
exact matrix per slice of degree-d spinors, and a relation holds on the
full graded space when lhs - rhs is the zero matrix on every slice.  A
spinor slice is the slice of degree-d polynomials tensored with C^2;
one builder, ``symmetry_generators``, writes every generator onto its
basis, from one call of ``sl1.dunkl_slice`` per slice.

Every slice matrix is integer and either real or imaginary; the type
enforces the latter, since a ``LinOp`` carries one phase and a sum of
real and imaginary terms raises ValueError.  Every coefficient is an
integer: a factor i is ``LinOp.times_i`` of the matrix it multiplies.
The builders and checks take the integer point v = (L, m_1, m_2, m_3) of
``sl1.dunkl_scale``, L = lcm(2, den mu_1, den mu_2, den mu_3) and m_i =
L mu_i, and read v[0] = L and v[i] = m_i; none divides by L, so L = 0 is
a valid point.
J_i, Gamma, M_i and K_i enter times L, and each relation times the
power of L that clears it; with S = sum m_i:

    [J_j, J_k] = i J_l (L + 2 m_l R_l),
    Gamma^2 + L Gamma = J^2 - L^2 X + S (S + L),
    [M_i, M_j] = i (L M_k + 2 m_k (X_k Gamma + L X_k)) + m_i m_j [X_i, X_j],
    {K_i, K_j} = L K_k + 2 m_k (Y Gamma + L Y) + 2 m_i m_j.

Each relation is checked as one residual, the ``linop.lincomb`` of
lhs - rhs, and holds when that matrix is zero (``VerificationReport.of``);
each of L J_i, Gamma and M_i is one ``lincomb`` too: one pass per column
over all of its terms, with no intermediate sum or scaled matrix.

The basis x1^a (i x2)^b x3^c, a similarity, multiplies entry (r, c) by
i^(b_c - b_r): J_2, sigma_2, M_2 and X_2 come out imaginary, the rest real.

``Poly3`` (trivariate polynomials with GRat coefficients), ``var_mul``,
``dunkl_partial``, ``angular_momentum`` and ``reflect`` apply the unscaled
operators to x1^a x2^b x3^c; the slice build does not use them.  They
are the reference the tests compare the slice matrices and the hops of
``sl1.dunkl_slice`` against, the only code outside ``exact`` that builds
a GRat, and ``perfbench/tracer.py`` wraps them by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact import GRAT_ONE, GRat, Rat
from .linop import LinOp, lincomb
from .report import VerificationReport
from .sl1 import checked_mu, dunkl_scale, dunkl_slice

Exponent = tuple[int, int, int]


@dataclass(frozen=True)
class Poly3:
    """Trivariate polynomial: exponent triple -> Gaussian-rational coeff."""

    terms: dict[Exponent, GRat] = field(default_factory=dict)

    @staticmethod
    def make(terms: dict[Exponent, GRat]) -> "Poly3":
        return Poly3({e: c for e, c in terms.items() if c})

    @staticmethod
    def monomial(e: Exponent) -> "Poly3":
        return Poly3({e: GRAT_ONE})

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
        return self + Poly3({e: -c for e, c in other.terms.items()})

    def scale(self, c: GRat) -> "Poly3":
        if not c:
            return Poly3({})
        return Poly3({e: x * c for e, x in self.terms.items()})


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
        return DiracParams(*(checked_mu(f"mu_{i}", m)
                             for i, m in enumerate((mu1, mu2, mu3), 1)))


def dunkl_partial(DP: DiracParams, axis: int, p: Poly3) -> Poly3:
    """D_i = d/dx_i + (mu_i/x_i)(1 - R_i), monomial by monomial.

    On x_i^a the reflection difference contributes 0 (a even) or
    2 mu_i x_i^(a-1) (a odd), so the division by x_i is always exact.
    """
    i = axis - 1
    mu = (DP.mu1, DP.mu2, DP.mu3)[i]
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
    # 1/i = -i, and (a + b i)(-i) = b - a i
    return Poly3({e: GRat(c.im, -c.re) for e, c in raw.terms.items()})


def _record_slices(title: str, slices: list[dict[str, LinOp]],
                   relations) -> VerificationReport:
    """The report ``title`` of, relation by relation and each on every slice
    d, the (name, residual) that ``relations(g)`` yields in one order for the
    generators g of each slice; each residual is kept as ``bool(residual)``."""
    flags = [[(name, bool(residual)) for name, residual in relations(g)] for g in slices]
    return VerificationReport.of(title, ((name, d, nonzero) for row in zip(*flags)
                                         for d, (name, nonzero) in enumerate(row)))


# ---------------------------------------------------------------------------
# spinor layer: basis vector 2 m + s of a spinor slice is the m-th monomial
# of its degree in the up (s = 0) or down (s = 1) component

def _sigma(i: int, n: int) -> LinOp:
    """1_n ⊗ sigma_i: the Pauli matrix sigma_i on the spin index of n
    monomials, as integer columns; sigma_2 is i times a real matrix."""
    cols = [{2 * m + (s if i == 3 else 1 - s): 1 if i == 1 else 1 - 2 * s}
            for m in range(n) for s in (0, 1)]
    sigma = LinOp.real(cols, 1)
    return sigma.times_i() if i == 2 else sigma


# The Pauli matrices on C^2, basis (up, down).
PAULI = {i: _sigma(i, 1) for i in (1, 2, 3)}


def pauli_layer_check() -> VerificationReport:
    """sigma_i sigma_j = i eps_ijk sigma_k + delta_ij and the Clifford
    relations as identities between the 2x2 ``PAULI`` ``LinOp``s (integer,
    sigma_2 imaginary), one residual per (i, j) and relation."""
    one = LinOp.identity(2)
    eps = {(1, 2): 3, (2, 3): 1, (3, 1): 2, (2, 1): -3, (3, 2): -1, (1, 3): -2}

    def residuals():
        for i in range(1, 4):
            for j in range(1, 4):
                k = eps.get((i, j), 0)
                # -(i eps_ijk sigma_k + delta_ij): the right side moved to the left
                rhs = (-1 if k > 0 else 1, PAULI[abs(k)].times_i()) if k else (-1, one)
                yield ("sigma_i sigma_j = i eps sigma_k + delta", (i, j),
                       lincomb((1, PAULI[i], PAULI[j]), rhs))
                yield ("{sigma_i,sigma_j} = 2 delta", (i, j), lincomb(
                    (1, PAULI[i], PAULI[j]), (1, PAULI[j], PAULI[i]),
                    (-2 if i == j else 0, one)))
    return VerificationReport.of("Pauli layer", residuals())


def gamma_apply(v: tuple[int, ...], g: dict[str, LinOp]) -> LinOp:
    """L Gamma = sigma . L J + m . R, m_i = v[i], on the spinor slice of the
    generators g (read: "sigma{i}", "J{i}" = L J_i and "R{i}"; degree
    preserving)."""
    return lincomb(*(term for i in (1, 2, 3)
                     for term in ((1, g[f"sigma{i}"], g[f"J{i}"]), (v[i], g[f"R{i}"]))))


def symmetry_generators(v: tuple[int, ...], degree: int) -> dict[str, LinOp]:
    """Gamma and its symmetries as integer matrices on the spinor slice of
    one degree, at the point v = (L, m_1, m_2, m_3); basis vector 2 m + s
    is spin s of monomial m = x1^a (i x2)^b x3^c, ordered by (a, b).

    For (i j k) cyclic: "J{i}" = L J_i, J_i = (1/i)(x_j D_k - x_k D_j), and
    "R{i}" act alike on both spins (op ⊗ 1_2, canonical as op is), "sigma{i}"
    on the spin index, "M{i}" = L M_i = L J_i + sigma_i (m_j R_j + m_k R_k +
    L/2), "X{i}" = sigma_i R_i and "K{i}" = L K_i = L M_i X_i Y; "1" is the
    identity, "Y" = R1 R2 R3 and "Gamma" = L Gamma (``gamma_apply``).  The
    basis (i x2)^b multiplies a hop into x2 by 1/i = -i and one out of x2 by
    i, so with the hops L x_a D_b of ``sl1.dunkl_slice``, L J_1 = -(L x2 D3 +
    L x3 D2), L J_2 = i (L x1 D3 - L x3 D1) and L J_3 = L x1 D2 + L x2 D1.
    An odd L raises ValueError (L/2 is no integer); L = 0 is valid.
    """
    if v[0] % 2:
        raise ValueError(f"L = {v[0]} is odd, so L M_i is not an integer matrix")
    exps, hop, R = dunkl_slice(v[0], v[1:], degree)
    J = (lincomb((-1, hop(1, 2)), (-1, hop(2, 1))),
         lincomb((1, hop(0, 2)), (-1, hop(2, 0))).times_i(),
         lincomb((1, hop(0, 1)), (1, hop(1, 0))))
    g = {"1": LinOp.identity(2 * len(exps))}
    for i in (1, 2, 3):
        for name, op in ((f"J{i}", J[i - 1]), (f"R{i}", R[i - 1])):
            g[name] = LinOp(tuple([{2 * r + s: x for r, x in col.items()}
                                   for col in op.nums for s in (0, 1)]), op.den, op.phase)
        g[f"sigma{i}"] = _sigma(i, len(exps))
    g["Gamma"] = gamma_apply(v, g)
    g["Y"] = g["R1"] @ g["R2"] @ g["R3"]
    for i, (j, k) in _CYCLIC.items():
        sigma = g[f"sigma{i}"]
        g[f"M{i}"] = lincomb((1, g[f"J{i}"]), (v[j], sigma, g[f"R{j}"]),
                             (v[k], sigma, g[f"R{k}"]), (v[0] // 2, sigma))
        g[f"X{i}"] = sigma @ g[f"R{i}"]
        g[f"K{i}"] = g[f"M{i}"] @ g[f"X{i}"] @ g["Y"]
    return g


def dirac_checks(DP: DiracParams, maxdeg: int) -> list[VerificationReport]:
    """The commutator, Gamma-square and symmetry-algebra reports on the
    slices 0..maxdeg, all three read from one build of each slice's
    generators at the point v = ``sl1.dunkl_scale`` of (mu1, mu2, mu3)."""
    v = dunkl_scale((DP.mu1, DP.mu2, DP.mu3))
    slices = [symmetry_generators(v, d) for d in range(maxdeg + 1)]
    return [jj_commutator_check(v, slices), gamma_square_identity(v, slices),
            symmetry_check(v, slices)]


def jj_commutator_check(v: tuple[int, ...],
                        slices: list[dict[str, LinOp]]) -> VerificationReport:
    """[J_j, J_k] = i J_l (1 + 2 mu_l R_l), times L^2, on every slice of
    ``slices`` (the ``symmetry_generators`` of degrees 0, 1, ... at the
    point v = (L, m_1, m_2, m_3)).

    Only the cyclic index reading (j k l) is checked; the report notes
    that it holds.
    """
    def relations(g: dict[str, LinOp]):
        for jj, (kk, ll) in _CYCLIC.items():
            a, b, ijl = g[f"J{jj}"], g[f"J{kk}"], g[f"J{ll}"].times_i()
            # the right side i J_l (L + 2 m_l R_l) moved to the left
            yield (f"[J{jj},J{kk}] = i J{ll}(1 + 2 mu{ll} R{ll})",
                   lincomb((1, a, b), (-1, b, a),
                           (-v[0], ijl), (-2 * v[ll], ijl, g[f"R{ll}"])))

    report = _record_slices("Dunkl angular-momentum commutators", slices, relations)
    if report.passed:
        report.note("cyclic index reading [J_j, J_k] = i eps_jkl J_l (1+2 mu_l R_l) holds")
    return report


def gamma_square_identity(v: tuple[int, ...],
                          slices: list[dict[str, LinOp]]) -> VerificationReport:
    """Gamma^2 + Gamma = J^2 - X + (sum mu)(sum mu + 1), times L^2, on every
    slice of ``slices`` (the ``symmetry_generators`` of degrees 0, 1, ... at
    the point v = (L, m_1, m_2, m_3)).

    This is the sphere-Laplacian-free combination of the two quadratic
    identities: X collects the reflection block that distinguishes J^2
    from the (shifted) spherical operator.
    """
    # L^2 X = L S - sum_{i<j} 2 m_i m_j (R_i R_j - 1) - L sum_i m_i R_i with
    # S = m_1 + m_2 + m_3, so the scalar terms S (S + L) - L S - 2 sum_{i<j}
    # m_i m_j of the right side add up to m_1^2 + m_2^2 + m_3^2.
    const = v[1] ** 2 + v[2] ** 2 + v[3] ** 2

    def relations(g: dict[str, LinOp]):
        gamma = g["Gamma"]
        yield ("Gamma^2 + Gamma = J^2 - X + c",
               lincomb((1, gamma, gamma), (v[0], gamma),
                       *((-1, g[f"J{i}"], g[f"J{i}"]) for i in (1, 2, 3)),
                       (-2 * v[1] * v[2], g["R1"], g["R2"]),
                       (-2 * v[2] * v[3], g["R2"], g["R3"]),
                       (-2 * v[1] * v[3], g["R1"], g["R3"]),
                       *((-v[0] * v[i], g[f"R{i}"]) for i in (1, 2, 3)),
                       (-const, g["1"])))

    return _record_slices("Gamma squared identity", slices, relations)


def symmetry_check(v: tuple[int, ...],
                   slices: list[dict[str, LinOp]]) -> VerificationReport:
    """Symmetries of Gamma and their Bannai-Ito subalgebra, exact on every
    slice of ``slices`` (the ``symmetry_generators`` of degrees 0, 1, ... at
    the point v = (L, m_1, m_2, m_3)).

    The K_i anticommutators are checked in their cyclic reading, with
    central term 2 mu_k (Gamma + 1) Y + 2 mu_i mu_j for {K_i, K_j}; the
    report records that this reading is the one that holds.  Each relation
    is one residual, the ``lincomb`` of lhs - rhs: [A, B] = 0 is
    AB - BA and {A, B} = 0 is AB + BA.
    """
    def relations(g: dict[str, LinOp]):
        one, y, gamma = g["1"], g["Y"], g["Gamma"]
        for i in (1, 2, 3):
            m, x = g[f"M{i}"], g[f"X{i}"]
            yield f"[Gamma, M{i}] = 0", lincomb((1, gamma, m), (-1, m, gamma))
            yield f"[Gamma, X{i}] = 0", lincomb((1, gamma, x), (-1, x, gamma))
            yield f"[M{i}, X{i}] = 0", lincomb((1, m, x), (-1, x, m))
            for j in (1, 2, 3):
                if j != i:
                    xj = g[f"X{j}"]
                    yield f"{{M{i}, X{j}}} = 0", lincomb((1, m, xj), (1, xj, m))

        # Y is central and squares to one.  X_3^2 = 1, so Y = -i X1 X2 X3
        # reads X1 X2 = i Y X3, a residual of products of two.
        yield ("Y = -i X1 X2 X3 = R1 R2 R3",
               lincomb((1, g["X1"], g["X2"]), (-1, y.times_i(), g["X3"])))
        yield "Y^2 = 1", lincomb((1, y, y), (-1, one))
        yield "[Y, Gamma] = 0", lincomb((1, y, gamma), (-1, gamma, y))
        for i in (1, 2, 3):
            m = g[f"M{i}"]
            yield f"[Y, M{i}] = 0", lincomb((1, y, m), (-1, m, y))

        # [M_i, M_j] = i eps_ijk (M_k + 2 mu_k (Gamma+1) X_k) + mu_i mu_j [X_i, X_j]
        # (the realization fixes the coefficient of [X_i, X_j] to mu_i mu_j;
        # 2 mu_i mu_j fails already on constant spinors), times L^2; the
        # right side i (L M_k + 2 m_k (X_k Gamma + L X_k)) is moved left
        for i, (j, k) in _CYCLIC.items():
            mi, mj, ixk = g[f"M{i}"], g[f"M{j}"], g[f"X{k}"].times_i()
            xi, xj, mij = g[f"X{i}"], g[f"X{j}"], v[i] * v[j]
            yield (f"[M{i}, M{j}] relation",
                   lincomb((1, mi, mj), (-1, mj, mi), (-v[0], g[f"M{k}"].times_i()),
                           (-2 * v[k], ixk, gamma), (-2 * v[k] * v[0], ixk),
                           (-mij, xi, xj), (mij, xj, xi)))

        # The Bannai-Ito subalgebra of the K_i = M_i X_i Y, times L^2.
        for i, (j, k) in _CYCLIC.items():
            ki, kj, mk2 = g[f"K{i}"], g[f"K{j}"], 2 * v[k]  # 2 m_k of (Y Gamma + L Y)
            yield (f"{{K{i}, K{j}}} = K{k} + central",
                   lincomb((1, ki, kj), (1, kj, ki), (-v[0], g[f"K{k}"]),
                           (-mk2, y, gamma), (-mk2 * v[0], y), (-2 * v[i] * v[j], one)))

    report = _record_slices("Dunkl-Dirac symmetry algebra", slices, relations)
    if report.passed:
        report.note(
            "cyclic reading holds: {K_i,K_j} = K_k + 2 mu_k (Gamma+1) Y + 2 mu_i mu_j"
        )
    return report
