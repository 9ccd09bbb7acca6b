"""Exact sparse matrices checked against sympy's exact Matrix."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bi_lab.exact import GRAT_ONE, GRat
from bi_lab.linop import LinOp, anticomm, comm, kron

N = 4
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
# Mostly zeros, so the sparse paths (dropped entries, cancellations) run.
sparse_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals)
grats = st.builds(GRat, sparse_rationals, sparse_rationals)
# Both parts nonzero in every entry, over denominators with distinct factors.
denominators = st.sampled_from([1, 2, 3, 4, 5, 7, 9, 12, 35])
nonzero_rationals = st.builds(Fraction, st.integers(-30, 30).filter(bool), denominators)
mixed_grats = st.builds(GRat, nonzero_rationals, nonzero_rationals)
# Real part zero: a matrix of these has an empty real block.
imaginaries = st.builds(lambda y: GRat(Fraction(0), y), sparse_rationals)
zeros = st.just(Fraction(0))


def entries(scalar, n=N):
    return st.lists(scalar, min_size=n * n, max_size=n * n)


def linop(flat, n=N) -> LinOp:
    """Row-major flat list of an n x n matrix -> LinOp."""
    return LinOp.make({i: flat[i * n + j] for i in range(n)} for j in range(n))


def to_sympy(x):
    if isinstance(x, GRat):
        return sympy.Rational(x.re) + sympy.I * sympy.Rational(x.im)
    return sympy.Rational(x)


def sym(flat, n=N) -> sympy.Matrix:
    return sympy.Matrix(n, n, [to_sympy(x) for x in flat])


def as_sympy(a: LinOp) -> sympy.Matrix:
    out = sympy.zeros(len(a.re), len(a.re))
    for j, col in enumerate(a.cols):
        for i, x in col.items():
            out[i, j] = to_sympy(x)
    return out


def same(a: LinOp, m: sympy.Matrix) -> bool:
    # Expanded, p + q*I has one form, so structural equality is exact here.
    return as_sympy(a) == m.expand()


@pytest.mark.parametrize("scalar", [sparse_rationals, grats, mixed_grats],
                         ids=["Fraction", "GRat", "mixed-GRat"])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_ring_operations_match_sympy(scalar, data):
    x, y = data.draw(entries(scalar)), data.draw(entries(scalar))
    c = data.draw(scalar)
    a, b = linop(x), linop(y)
    sx, sy = sym(x), sym(y)
    assert same(a + b, sx + sy)
    assert same(a - b, sx - sy)
    assert same(a @ b, sx * sy)
    assert same(a.scale(c), sx * to_sympy(c))
    assert same(comm(a, b), sx * sy - sy * sx)
    assert same(anticomm(a, b), sx * sy + sy * sx)
    assert to_sympy(a.trace()) == sympy.expand(sx.trace())
    assert to_sympy((a @ b).trace()) == sympy.expand((sx * sy).trace())


def snapshot(a: LinOp):
    return [dict(col) for col in a.re], [dict(col) for col in a.im], a.den


@pytest.mark.parametrize("left, right", [
    (sparse_rationals, imaginaries), (imaginaries, mixed_grats),
    (mixed_grats, zeros), (zeros, imaginaries),
], ids=["real-imaginary", "imaginary-complex", "complex-zero", "zero-imaginary"])
@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_mixed_operands_match_sympy(left, right, data):
    # Operands with an empty real or imaginary block, in both orders; results
    # may share columns with the operands, so no input may change.
    x, y = data.draw(entries(left)), data.draw(entries(right))
    c = data.draw(st.one_of(left, right))
    a, b = linop(x), linop(y)
    sx, sy = sym(x), sym(y)
    operands = [a, b]
    results = []
    for p, q, sp, sq in ((a, b, sx, sy), (b, a, sy, sx)):
        before = [snapshot(m) for m in operands + results]
        cases = [(p + q, sp + sq), (p - q, sp - sq), (p @ q, sp * sq),
                 (p.scale(c), sp * to_sympy(c)), (-p, -sp),
                 (comm(p, q), sp * sq - sq * sp), (anticomm(p, q), sp * sq + sq * sp)]
        for got, want in cases:
            assert same(got, want)
        assert [snapshot(m) for m in operands + results] == before
        results += [got for got, _ in cases]
    u, v = data.draw(entries(left, 3)), data.draw(entries(right, 2))
    ua, vb = linop(u, 3), linop(v, 2)
    before = [snapshot(ua), snapshot(vb)]
    assert same(kron(ua, vb), sympy.kronecker_product(sym(u, 3), sym(v, 2)))
    assert same(kron(vb, ua), sympy.kronecker_product(sym(v, 2), sym(u, 3)))
    assert [snapshot(ua), snapshot(vb)] == before


@pytest.mark.parametrize("scalar", [sparse_rationals, grats],
                         ids=["Fraction", "GRat"])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_kron_matches_sympy(scalar, data):
    # Unequal sizes, so the basis order j len(b) + l is pinned down.
    x, y = data.draw(entries(scalar, 3)), data.draw(entries(scalar, 2))
    a, b = linop(x, 3), linop(y, 2)
    assert same(kron(a, b), sympy.kronecker_product(sym(x, 3), sym(y, 2)))
    assert kron(a, b) - kron(a, b) == kron(a - a, b)


@settings(deadline=None, max_examples=25)
@given(entries(grats))
def test_zero_entries_never_stored(x):
    a = linop(x)
    assert all(v for col in (a - a).cols + a.cols for v in col.values())
    assert a - a == a.scale(GRat())
    assert a @ LinOp.identity(N) == a == LinOp.identity(N) @ a
    assert LinOp.identity(N) == LinOp.make({j: GRAT_ONE} for j in range(N)) \
        == LinOp.make({j: Fraction(1)} for j in range(N))


def inverse(c):
    if isinstance(c, GRat):
        norm = c.re * c.re + c.im * c.im
        return GRat(c.re / norm, -c.im / norm)
    return 1 / c


@pytest.mark.parametrize("scalar", [sparse_rationals, mixed_grats],
                         ids=["Fraction", "mixed-GRat"])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_equality_is_canonical(scalar, data):
    a = linop(data.draw(entries(scalar)))
    c = data.draw(scalar.filter(bool))
    assert a.scale(c).scale(inverse(c)) == a
    zero = a - a
    assert not any(zero.re) and not any(zero.im) and zero.den == 1
    i, j = data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, N - 1))
    e = LinOp.make({i: Fraction(1, 10**30 + 57)} if col == j else {}
                   for col in range(N))
    assert a + e != a
    assert (a + e) - e == a


def test_size_mismatch_rejected():
    a = LinOp.identity(2)
    b = LinOp.identity(3)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - b
    with pytest.raises(ValueError):
        a @ b
