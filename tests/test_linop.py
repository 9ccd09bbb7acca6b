"""Exact sparse matrices checked against sympy's exact Matrix."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bi_lab
from bi_lab.exact import GRAT_I, GRAT_ONE, GRat
from bi_lab.linop import LinOp, anticomm, comm, lincomb, record_columns
from bi_lab.report import VerificationReport

N = 4
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
# Mostly zeros, so the sparse paths (dropped entries, cancellations) run.
sparse_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals)


def i_times(x):
    """The purely imaginary GRat i x."""
    return GRat(Fraction(0), x)


# Real part zero: a matrix of these is purely imaginary.
imaginaries = st.builds(i_times, sparse_rationals)
zeros = st.just(Fraction(0))


def entries(scalar):
    return st.lists(scalar, min_size=N * N, max_size=N * N)


# Operands of one kind, and coefficients of each kind.
MATRICES = {"real": entries(sparse_rationals), "imaginary": entries(imaginaries)}
COEFFICIENTS = {"int": st.integers(-6, 6), "Fraction": rationals,
                "real-GRat": st.builds(GRat, rationals),
                "imaginary-GRat": st.builds(i_times, rationals)}


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
    for j, col in enumerate(a.nums):
        for i, x in col.items():
            out[i, j] = sympy.I ** a.phase * sympy.Rational(x, a.den)
    return out


def same(a: LinOp, m: sympy.Matrix) -> bool:
    # Expanded, p + q*I has one form, so structural equality is exact here.
    return as_sympy(a) == m.expand()


def phase(m: sympy.Matrix):
    """0 for a nonzero real matrix, 1 for a nonzero purely imaginary one
    and None for zero; no operand here has both parts."""
    parts = {bool(sympy.im(x)) for x in m if x}
    assert len(parts) <= 1
    return parts.pop() if parts else None


# 2 x 2 operands with every entry nonzero, two of each phase, and a
# coefficient of each phase: each product of entries and each power of i
# shows in every result, so an i^2 sign slip fails on them before any
# example is drawn, with no shrinking.
REAL_2X2 = ([Fraction(3, 2), Fraction(-1), Fraction(2, 7), Fraction(5, 3)],
            [Fraction(-4, 3), Fraction(1, 2), Fraction(6), Fraction(-7, 5)])
IMAGINARY_2X2 = tuple([i_times(x) for x in flat] for flat in (
    [Fraction(-2, 5), Fraction(4), Fraction(7), Fraction(1, 3)],
    [Fraction(5, 2), Fraction(-3), Fraction(1, 6), Fraction(2)]))
PHASE_2X2 = (REAL_2X2, IMAGINARY_2X2)
PHASE_C = (Fraction(-5, 2), i_times(Fraction(2, 3)))


def triple_examples(f):
    """@example of the one term c x y for each phase triple (c, x, y)."""
    for ec in (0, 1):
        for ex in (0, 1):
            for ey in (0, 1):
                f = example([(PHASE_C[ec], PHASE_2X2[ex][0], PHASE_2X2[ey][1])])(f)
    return f


def phase_examples(pairs):
    """@example of (x, y, c) for each operand phase and coefficient phase."""
    def decorate(f):
        for x, y in pairs:
            for c in PHASE_C:
                f = example(x, y, c)(f)
        return f
    return decorate


@pytest.mark.parametrize("scalar", [sparse_rationals, imaginaries],
                         ids=["Fraction", "imaginary-GRat"])
def test_ring_operations_match_sympy(scalar):
    @settings(deadline=None, max_examples=25)
    @given(entries(scalar), entries(scalar), st.one_of(*COEFFICIENTS.values()))
    @phase_examples(PHASE_2X2)
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
    return [dict(col) for col in a.nums], a.den, a.phase


ZERO_2X2 = [Fraction(0)] * 4


@pytest.mark.parametrize("left, right, example_x, example_y", [
    (sparse_rationals, imaginaries, REAL_2X2[0], IMAGINARY_2X2[0]),
    (zeros, imaginaries, ZERO_2X2, IMAGINARY_2X2[0]),
], ids=["real-imaginary", "zero-imaginary"])
def test_mixed_operands_match_sympy(left, right, example_x, example_y):
    # A real and an imaginary operand, in both orders: products match
    # sympy, and a sum does when one operand is zero and raises otherwise;
    # no operation may change an operand or an earlier result.
    @settings(deadline=None, max_examples=15)
    @given(entries(left), entries(right), st.one_of(*COEFFICIENTS.values()))
    @example(example_x, example_y, PHASE_C[0])
    @example(example_x, example_y, PHASE_C[1])
    def check(x, y, c):
        a, b = linop(x), linop(y)
        sx, sy = sym(x), sym(y)
        operands = [a, b]
        results = []
        for p, q, sp, sq in ((a, b, sx, sy), (b, a, sy, sx)):
            before = [snapshot(m) for m in operands + results]
            cases = [(p @ q, sp * sq), (p.scale(c), sp * to_sympy(c)), (-p, -sp),
                     (comm(p, q), sp * sq - sq * sp), (anticomm(p, q), sp * sq + sq * sp),
                     (lincomb((c, p, q), (c, q, p)), to_sympy(c) * (sp * sq + sq * sp))]
            if phase(sp) is None or phase(sq) is None:
                cases += [(p + q, sp + sq), (p - q, sp - sq)]
            else:
                for form in (lambda: p + q, lambda: p - q):
                    with pytest.raises(ValueError):
                        form()
            for got, want in cases:
                assert same(got, want)
            assert [snapshot(m) for m in operands + results] == before
            results += [got for got, _ in cases]

    check()


@pytest.mark.parametrize("coefficient", list(COEFFICIENTS.values()), ids=list(COEFFICIENTS))
@pytest.mark.parametrize("matrix", list(MATRICES.values()), ids=list(MATRICES))
def test_lincomb_matches_sympy(matrix, coefficient):
    # One to four terms, each c x or c x y.  The terms with a nonzero
    # coefficient and nonzero factors must share one phase, that of c
    # times those of x and y; otherwise lincomb raises.
    @settings(deadline=None, max_examples=10)
    @given(st.lists(st.one_of(st.tuples(coefficient, matrix),
                              st.tuples(coefficient, matrix, matrix)), min_size=1, max_size=4))
    @example([(PHASE_C[1], REAL_2X2[0]), (PHASE_C[1], IMAGINARY_2X2[1], REAL_2X2[1]),
              (-3, IMAGINARY_2X2[0], REAL_2X2[0]), (Fraction(1, 7), REAL_2X2[1], IMAGINARY_2X2[0])])
    @triple_examples
    def check(terms):
        want, phases = sympy.zeros(math.isqrt(len(terms[0][1]))), set()
        for c, *ops in terms:
            factors = [to_sympy(c) * sympy.eye(want.rows)] + [sym(op) for op in ops]
            term_phases = [phase(f) for f in factors]
            if None not in term_phases:
                phases.add(sum(term_phases) % 2)
            want += math.prod(factors[1:], start=factors[0])
        got = lambda: lincomb(*((c, *map(linop, ops)) for c, *ops in terms))
        if len(phases) > 1:
            with pytest.raises(ValueError, match="real and imaginary"):
                got()
        else:
            assert same(got(), want)

    check()


@pytest.mark.parametrize("scalar", [sparse_rationals, imaginaries],
                         ids=["Fraction", "imaginary-GRat"])
def test_lincomb_forms_of_ring_operations(scalar):
    # Every ring operation is a lincomb call; each form is also checked
    # against the others, and the sympy tests check each against sympy.
    @settings(deadline=None, max_examples=25)
    @given(entries(scalar), entries(scalar), st.one_of(*COEFFICIENTS.values()))
    @phase_examples(PHASE_2X2)
    def check(x, y, c):
        a, b = linop(x), linop(y)
        assert a @ b == lincomb((1, a, b))
        assert comm(a, b) == lincomb((1, a, b), (-1, b, a)) == a @ b - b @ a
        assert anticomm(a, b) == lincomb((1, a, b), (1, b, a)) == a @ b + b @ a
        assert lincomb((c, a, b)) == (a @ b).scale(c)
        assert lincomb((c, a), (-c, b)) == a.scale(c) - b.scale(c)

    check()


def assert_canonical_zero(zero: LinOp, like: LinOp):
    assert not any(zero.nums) and zero.den == 1 and zero.phase == 0
    assert zero == like.scale(0)


@pytest.mark.parametrize("scalar", [sparse_rationals, imaginaries],
                         ids=["Fraction", "imaginary-GRat"])
def test_lincomb_cancels_to_canonical_zero(scalar):
    @settings(deadline=None, max_examples=25)
    @given(entries(scalar), entries(scalar), st.one_of(*COEFFICIENTS.values()))
    @phase_examples(PHASE_2X2)
    def check(x, y, c):
        a, b = linop(x), linop(y)
        for zero in (lincomb((c, a, b), (-c, a, b)),
                     lincomb((c, a), (c, b), (-c, a), (-c, b)),
                     lincomb((1, b, a), (-1, b @ a)),
                     lincomb((c, a, b), (-1, a.scale(c), b))):
            assert_canonical_zero(zero, a)

    check()


def test_imaginary_sum_that_cancels_is_the_real_zero():
    a = linop(IMAGINARY_2X2[0])
    assert a.phase == 1
    # i (i a / 3) = -a / 3: every term below is imaginary.
    for zero in (a - a, lincomb((Fraction(1, 3), a), (GRAT_I, a.scale(i_times(Fraction(1, 3))))),
                 LinOp.imaginary([{}, {}], 5)):
        assert_canonical_zero(zero, a)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_zero_matrix_is_falsy_at_every_size(n):
    eye = LinOp.identity(n)
    for zero in (eye.scale(0), LinOp.real([{}] * n, 7), LinOp.imaginary([{}] * n, 2),
                 eye - eye, lincomb((1, eye, eye), (-1, eye))):
        assert not zero and len(zero) == n


@pytest.mark.parametrize("block", [LinOp.real, LinOp.imaginary])
def test_product_that_cancels_is_falsy(block):
    shift = block([{}, {0: 3}], 2)  # nonzero, with square zero
    assert shift and not shift @ shift and not lincomb((1, shift, shift), (0, shift))


@settings(deadline=None, max_examples=25)
@given(st.one_of(*MATRICES.values()))
def test_truthy_exactly_when_nonzero(x):
    a = linop(x)
    assert bool(a) == any(x) == (as_sympy(a) != sympy.zeros(N, N))
    assert not a - a


def test_only_linop_reads_numerators_to_test_for_zero():
    """Outside ``linop`` a relation is decided by ``not residual``: no
    module applies ``any`` to a matrix's numerators."""
    found = []
    for path in sorted(Path(bi_lab.__file__).parent.glob("*.py")):
        if path.name == "linop.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "any"
                    and any(isinstance(sub, ast.Attribute) and sub.attr == "nums"
                            for arg in node.args for sub in ast.walk(arg))):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


@settings(deadline=None, max_examples=25)
@given(st.one_of(*MATRICES.values()))
def test_zero_entries_never_stored(x):
    a = linop(x)
    assert all(v for col in (a - a).nums + a.nums for v in col.values())
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
@pytest.mark.parametrize("scalar, nonzero, unit",
                         [(sparse_rationals, rationals.filter(bool), Fraction),
                          (imaginaries, st.builds(i_times, rationals.filter(bool)), i_times)],
                         ids=["Fraction", "imaginary-GRat"])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_equality_is_canonical(scalar, nonzero, unit, data):
    a = linop(data.draw(entries(scalar)))
    c = data.draw(nonzero)
    assert a.scale(c).scale(inverse(c)) == a
    assert_canonical_zero(a - a, a)
    i, j = data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, N - 1))
    e = LinOp.make({i: unit(Fraction(1, 10**30 + 57))} if col == j else {}
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


REAL = LinOp.real([{0: 3}, {0: 1, 1: -2}], 2)
IMAGINARY = LinOp.imaginary([{1: 5}, {0: 1}], 3)


def test_make_rejects_columns_that_mix_real_and_imaginary_entries():
    for cols in ([{0: Fraction(1)}, {1: GRAT_I}], [{0: Fraction(1), 1: GRAT_I}, {}],
                 [{0: GRat(Fraction(1), Fraction(2))}, {}]):
        with pytest.raises(ValueError):
            LinOp.make(cols)
    # Zero entries have no phase, whatever their type.
    assert LinOp.make([{0: GRat()}, {1: GRAT_I}]) == LinOp.imaginary([{}, {1: 1}], 1)
    assert LinOp.make([{0: GRAT_I.scale(0)}, {1: Fraction(1)}]) == LinOp.real([{}, {1: 1}], 1)


def test_lincomb_rejects_two_part_coefficient():
    c = GRat(Fraction(1, 2), Fraction(-3))
    for terms in (((c, REAL),), ((c, IMAGINARY, REAL),), ((1, REAL), (c, REAL))):
        with pytest.raises(ValueError, match="neither real nor purely imaginary"):
            lincomb(*terms)
    with pytest.raises(ValueError):
        REAL.scale(c)


@pytest.mark.parametrize("terms", [
    ((1, REAL), (1, IMAGINARY)), ((GRAT_I, REAL), (1, REAL)), ((1, REAL, IMAGINARY), (1, REAL)),
    ((GRAT_I, IMAGINARY), (1, IMAGINARY)), ((1, IMAGINARY, IMAGINARY), (1, IMAGINARY)),
], ids=["R+I", "iR+R", "RI+R", "iI+I", "II+I"])
def test_lincomb_rejects_real_plus_imaginary(terms):
    with pytest.raises(ValueError, match="real and imaginary"):
        lincomb(*terms)
    with pytest.raises(ValueError, match="real and imaginary"):
        lincomb(*terms[::-1])


def test_zero_terms_of_the_other_phase_are_skipped():
    zero = REAL.scale(0)
    assert zero.phase == 0
    for c, other in ((1, REAL), (GRAT_I, IMAGINARY), (-1, IMAGINARY.scale(GRAT_I))):
        want = other.scale(c)
        for skipped in ((0, IMAGINARY), (GRat(), IMAGINARY), (GRAT_I.scale(0), REAL),
                        (GRAT_I, zero), (1, IMAGINARY, zero), (1, zero, IMAGINARY),
                        (GRAT_I, REAL, zero)):
            for terms in (((c, other), skipped), (skipped, (c, other))):
                assert lincomb(*terms) == want, terms
    assert lincomb((GRAT_I, zero), (1, REAL, zero)) == zero


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
