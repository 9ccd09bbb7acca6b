"""Exact sparse matrices checked against sympy's exact Matrix."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bi_lab.exact import GRAT_ONE, GRat
from bi_lab.linop import LinOp, anticomm, comm, lincomb, record_columns
from bi_lab.report import VerificationReport

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


def entries(scalar):
    return st.lists(scalar, min_size=N * N, max_size=N * N)


def linop(flat) -> LinOp:
    """Row-major flat list of an n x n matrix -> LinOp."""
    n = math.isqrt(len(flat))
    return LinOp.make({i: flat[i * n + j] for i in range(n)} for j in range(n))


def to_sympy(x):
    if isinstance(x, GRat):
        return sympy.Rational(x.re) + sympy.I * sympy.Rational(x.im)
    return sympy.Rational(x)


def sym(flat) -> sympy.Matrix:
    n = math.isqrt(len(flat))
    return sympy.Matrix(n, n, [to_sympy(x) for x in flat])


def as_sympy(a: LinOp) -> sympy.Matrix:
    out = sympy.zeros(len(a), len(a))
    for j, col in enumerate(a.cols):
        for i, x in col.items():
            out[i, j] = to_sympy(x)
    return out


def same(a: LinOp, m: sympy.Matrix) -> bool:
    # Expanded, p + q*I has one form, so structural equality is exact here.
    return as_sympy(a) == m.expand()


# 2 x 2 operands with both parts of every entry nonzero, and a coefficient
# of that kind: each product of blocks and each power of i shows in every
# result, so a sign slip fails on them before any example is drawn, with
# no shrinking.
MIXED_2X2 = tuple([GRat(Fraction(p, 3), Fraction(q, 2)) for p, q in pairs]
                  for pairs in (((1, -3), (2, 5), (-4, 1), (7, -2)),
                                ((-5, 4), (3, 3), (2, -7), (-1, -1)),
                                ((6, -1), (-2, 9), (5, 2), (-3, 4))))
MIXED_C = GRat(Fraction(2, 3), Fraction(-5, 2))


@pytest.mark.parametrize("scalar", [sparse_rationals, grats, mixed_grats],
                         ids=["Fraction", "GRat", "mixed-GRat"])
def test_ring_operations_match_sympy(scalar):
    @settings(deadline=None, max_examples=25)
    @given(entries(scalar), entries(scalar), scalar)
    @example(*MIXED_2X2[:2], MIXED_C)
    def check(x, y, c):
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

    check()


def snapshot(a: LinOp):
    return [dict(col) for col in a.re], [dict(col) for col in a.im], a.den


# 2 x 2 examples of the operand kinds of test_mixed_operands_match_sympy.
REAL_2X2 = [Fraction(3, 2), Fraction(-1), Fraction(0), Fraction(5, 3)]
IMAGINARY_2X2 = [GRat(Fraction(0), x) for x in (Fraction(-2, 5), Fraction(0),
                                                 Fraction(7), Fraction(1, 3))]
ZERO_2X2 = [Fraction(0)] * 4


@pytest.mark.parametrize("left, right, example_x, example_y", [
    (sparse_rationals, imaginaries, REAL_2X2, IMAGINARY_2X2),
    (imaginaries, mixed_grats, IMAGINARY_2X2, MIXED_2X2[0]),
    (mixed_grats, zeros, MIXED_2X2[0], ZERO_2X2),
    (zeros, imaginaries, ZERO_2X2, IMAGINARY_2X2),
], ids=["real-imaginary", "imaginary-complex", "complex-zero", "zero-imaginary"])
def test_mixed_operands_match_sympy(left, right, example_x, example_y):
    # Operands with an empty real or imaginary block, in both orders; no
    # operation may change an operand or an earlier result.
    @settings(deadline=None, max_examples=15)
    @given(entries(left), entries(right), st.one_of(left, right))
    @example(example_x, example_y, MIXED_C)
    def check(x, y, c):
        a, b = linop(x), linop(y)
        sx, sy = sym(x), sym(y)
        operands = [a, b]
        results = []
        for p, q, sp, sq in ((a, b, sx, sy), (b, a, sy, sx)):
            before = [snapshot(m) for m in operands + results]
            cases = [(p + q, sp + sq), (p - q, sp - sq), (p @ q, sp * sq),
                     (p.scale(c), sp * to_sympy(c)), (-p, -sp),
                     (comm(p, q), sp * sq - sq * sp), (anticomm(p, q), sp * sq + sq * sp),
                     (lincomb((c, p, q), (1, q), (c, p)), to_sympy(c) * (sp * sq + sp) + sq)]
            for got, want in cases:
                assert same(got, want)
            assert [snapshot(m) for m in operands + results] == before
            results += [got for got, _ in cases]

    check()


# Operands of one kind, or each of any kind, and coefficients of each kind.
MATRICES = {"real": entries(sparse_rationals), "imaginary": entries(imaginaries),
            "mixed-GRat": entries(mixed_grats),
            "any": st.one_of(entries(sparse_rationals), entries(imaginaries),
                             entries(mixed_grats))}
COEFFICIENTS = {"int": st.integers(-6, 6), "Fraction": rationals, "GRat": mixed_grats}


@pytest.mark.parametrize("coefficient", list(COEFFICIENTS.values()), ids=list(COEFFICIENTS))
@pytest.mark.parametrize("matrix", list(MATRICES.values()), ids=list(MATRICES))
def test_lincomb_matches_sympy(matrix, coefficient):
    # One to four terms, each c x or c x y.
    @settings(deadline=None, max_examples=10)
    @given(st.lists(st.one_of(st.tuples(coefficient, matrix),
                              st.tuples(coefficient, matrix, matrix)), min_size=1, max_size=4))
    @example([(MIXED_C, MIXED_2X2[0]), (MIXED_C, MIXED_2X2[1], MIXED_2X2[2]),
              (-3, MIXED_2X2[2], MIXED_2X2[0]), (Fraction(1, 7), MIXED_2X2[1])])
    def check(terms):
        want = sympy.zeros(math.isqrt(len(terms[0][1])))
        for c, *ops in terms:
            want += to_sympy(c) * math.prod((sym(op) for op in ops[1:]), start=sym(ops[0]))
        assert same(lincomb(*((c, *map(linop, ops)) for c, *ops in terms)), want)

    check()


@pytest.mark.parametrize("scalar", [sparse_rationals, grats, mixed_grats],
                         ids=["Fraction", "GRat", "mixed-GRat"])
def test_lincomb_forms_of_ring_operations(scalar):
    # Every ring operation is a lincomb call; each form is also checked
    # against the others, and the sympy tests check each against sympy.
    @settings(deadline=None, max_examples=25)
    @given(entries(scalar), entries(scalar), scalar)
    @example(*MIXED_2X2[:2], MIXED_C)
    def check(x, y, c):
        a, b = linop(x), linop(y)
        assert a @ b == lincomb((1, a, b))
        assert comm(a, b) == lincomb((1, a, b), (-1, b, a)) == a @ b - b @ a
        assert anticomm(a, b) == lincomb((1, a, b), (1, b, a)) == a @ b + b @ a
        assert lincomb((c, a, b)) == (a @ b).scale(c)
        assert lincomb((c, a), (-1, b)) == a.scale(c) - b

    check()


@settings(deadline=None, max_examples=25)
@given(entries(mixed_grats), entries(grats), mixed_grats)
@example(*MIXED_2X2[:2], MIXED_C)
def test_lincomb_cancels_to_canonical_zero(x, y, c):
    a, b = linop(x), linop(y)
    minus_c = GRat(-c.re, -c.im)
    for zero in (lincomb((c, a, b), (minus_c, a, b)),
                 lincomb((c, a), (1, b, a), (minus_c, a), (-1, b @ a)),
                 lincomb((c, a, b), (-1, a.scale(c), b))):
        assert not any(zero.re) and not any(zero.im) and zero.den == 1
        assert zero == a.scale(0)


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


# The scalar c is drawn from a nonzero strategy over the same range: a
# filter on the mostly-zero sparse_rationals rejects too many draws.
@pytest.mark.parametrize("scalar, nonzero",
                         [(sparse_rationals, rationals.filter(bool)),
                          (mixed_grats, mixed_grats)],
                         ids=["Fraction", "mixed-GRat"])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_equality_is_canonical(scalar, nonzero, data):
    a = linop(data.draw(entries(scalar)))
    c = data.draw(nonzero)
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
    for terms in (((1, a), (1, b)), ((1, a, b),), ((1, b, a),), ((2, a), (1, a, b))):
        with pytest.raises(ValueError):
            lincomb(*terms)


def test_len_is_the_size():
    assert len(LinOp.identity(0)) == 0
    assert len(LinOp.real([{}, {0: 1}, {}], 1)) == 3


def recorded_columns(monkeypatch, residuals, n):
    """The report that record_columns fills, and the (check, index, ok) of
    each call to ``VerificationReport.record`` it made."""
    calls = []

    def record(self, check, index, ok, detail="", _orig=VerificationReport.record):
        calls.append((check, index, ok))
        _orig(self, check, index, ok, detail)
    monkeypatch.setattr(VerificationReport, "record", record)
    report = VerificationReport("columns")
    record_columns(report, residuals, n)
    return report, calls


def test_record_columns_one_call_per_entry_in_column_order(monkeypatch):
    zero = LinOp.identity(4).scale(0)
    report, calls = recorded_columns(monkeypatch, [("a", zero), ("b", zero)], 3)
    assert calls == [(name, j, True) for j in range(3) for name in "ab"]
    assert [(e.check, e.index, e.ok) for e in report.entries] == calls


@pytest.mark.parametrize("block", [LinOp.real, LinOp.imaginary])
@pytest.mark.parametrize("j", range(4))
def test_record_columns_fails_exactly_the_nonzero_column(monkeypatch, block, j):
    zero = LinOp.identity(4).scale(0)
    residual = block([{(j + 1) % 4: 5} if c == j else {} for c in range(4)], 3)
    report, _ = recorded_columns(monkeypatch, [("zero", zero), ("r", residual)], 4)
    assert report.checked == 8
    assert [(e.check, e.index) for e in report.failures] == [("r", j)]
