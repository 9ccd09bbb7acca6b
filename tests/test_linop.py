"""Exact sparse matrices checked against sympy's exact Matrix."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bi_lab.exact import GRAT_ONE, GRat
from bi_lab.linop import LinOp, anticomm, comm

N = 4
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
# Mostly zeros, so the sparse paths (dropped entries, cancellations) run.
sparse_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals)
grats = st.builds(GRat, sparse_rationals, sparse_rationals)


def entries(scalar):
    return st.lists(scalar, min_size=N * N, max_size=N * N)


def linop(flat) -> LinOp:
    """Row-major flat list -> LinOp."""
    return LinOp.make({i: flat[i * N + j] for i in range(N)} for j in range(N))


def to_sympy(x):
    if isinstance(x, GRat):
        return sympy.Rational(x.re) + sympy.I * sympy.Rational(x.im)
    return sympy.Rational(x)


def sym(flat) -> sympy.Matrix:
    return sympy.Matrix(N, N, [to_sympy(x) for x in flat])


def as_sympy(a: LinOp) -> sympy.Matrix:
    out = sympy.zeros(N, N)
    for j, col in enumerate(a.cols):
        for i, x in col.items():
            out[i, j] = to_sympy(x)
    return out


def same(a: LinOp, m: sympy.Matrix) -> bool:
    return (as_sympy(a) - m).expand() == sympy.zeros(N, N)


@pytest.mark.parametrize("scalar", [sparse_rationals, grats], ids=["Fraction", "GRat"])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_ring_operations_match_sympy(scalar, data):
    x, y = data.draw(entries(scalar)), data.draw(entries(scalar))
    c = data.draw(scalar)
    a, b = linop(x), linop(y)
    assert same(a + b, sym(x) + sym(y))
    assert same(a - b, sym(x) - sym(y))
    assert same(a @ b, sym(x) * sym(y))
    assert same(a.scale(c), sym(x) * to_sympy(c))
    assert same(comm(a, b), sym(x) * sym(y) - sym(y) * sym(x))
    assert same(anticomm(a, b), sym(x) * sym(y) + sym(y) * sym(x))


@settings(max_examples=25)
@given(entries(grats))
def test_zero_entries_never_stored(x):
    a = linop(x)
    assert all(v for col in (a - a).cols + a.cols for v in col.values())
    assert a - a == a.scale(GRat())
    assert a @ LinOp.identity(N, GRAT_ONE) == a


def test_size_mismatch_rejected():
    a = LinOp.identity(2, Fraction(1))
    b = LinOp.identity(3, Fraction(1))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a @ b
