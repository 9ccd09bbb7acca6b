"""Exact sparse matrices checked against sympy's exact Matrix."""

import ast
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bi_lab
from bi_lab.exact import GRat
import bi_lab.linop
from bi_lab.linop import LinOp, lincomb, record_columns
from bi_lab.report import VerificationReport

N = 4
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
# Mostly zeros, so the sparse paths (dropped entries, cancellations) run.
sparse_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), rationals)


@dataclass(frozen=True)
class I:
    """The purely imaginary scalar i r, r rational, on the test side only:
    ``LinOp`` entries and ``lincomb`` coefficients are rational, and a
    matrix is multiplied by i through ``LinOp.times_i``."""

    r: Fraction

    def __neg__(self) -> "I":
        return I(-self.r)

    def __bool__(self) -> bool:
        return bool(self.r)


def imaginary(cols, den: int) -> LinOp:
    """i times the real matrix with these integer columns over den."""
    return LinOp.real(cols, den).times_i()


# A matrix of these is purely imaginary.
imaginaries = st.builds(I, sparse_rationals)
zeros = st.just(Fraction(0))


def entries(scalar):
    return st.lists(scalar, min_size=N * N, max_size=N * N)


# Operands of one kind, and coefficients of each kind.
MATRICES = {"real": entries(sparse_rationals), "imaginary": entries(imaginaries)}
COEFFICIENTS = {"int": st.integers(-6, 6), "Fraction": rationals,
                "imaginary": st.builds(I, rationals)}


def linop(flat) -> LinOp:
    """Row-major flat list of an n x n matrix -> LinOp: ``LinOp.make`` of
    rational entries, or ``times_i`` of the r of entries I(r)."""
    n, imag = math.isqrt(len(flat)), isinstance(flat[0], I)
    assert all(isinstance(x, I) == imag for x in flat)
    real = [x.r for x in flat] if imag else flat
    a = LinOp.make({i: real[i * n + j] for i in range(n)} for j in range(n))
    return a.times_i() if imag else a


def term(c, *ops) -> tuple:
    """The ``lincomb`` term of c times the product of ops: an imaginary
    c = I(r) is passed as the rational r and i times the first factor."""
    return (c.r, ops[0].times_i(), *ops[1:]) if isinstance(c, I) else (c, *ops)


def to_sympy(x):
    if isinstance(x, I):
        return sympy.I * sympy.Rational(x.r)
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
IMAGINARY_2X2 = tuple([I(x) for x in flat] for flat in (
    [Fraction(-2, 5), Fraction(4), Fraction(7), Fraction(1, 3)],
    [Fraction(5, 2), Fraction(-3), Fraction(1, 6), Fraction(2)]))
PHASE_2X2 = (REAL_2X2, IMAGINARY_2X2)
PHASE_C = (Fraction(-5, 2), I(Fraction(2, 3)))


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


def assert_trace(a: LinOp, m: sympy.Matrix):
    """The trace of a real matrix matches sympy's; an imaginary one has none."""
    if a.phase:
        with pytest.raises(ValueError, match="imaginary"):
            a.trace()
    else:
        assert a.trace() == sympy.expand(m.trace())


@pytest.mark.parametrize("scalar", [sparse_rationals, imaginaries],
                         ids=["Fraction", "imaginary"])
def test_ring_operations_match_sympy(scalar):
    @settings(deadline=None, max_examples=25)
    @given(entries(scalar), entries(scalar), st.one_of(*COEFFICIENTS.values()))
    @phase_examples(PHASE_2X2)
    def check(x, y, c):
        a, b = linop(x), linop(y)
        sx, sy = sym(x), sym(y)
        assert same(lincomb((1, a), (1, b)), sx + sy)
        assert same(lincomb((1, a), (-1, b)), sx - sy)
        assert same(a @ b, sx * sy)
        assert same(lincomb(term(c, a)), sx * to_sympy(c))
        assert same(lincomb((1, a, b), (-1, b, a)), sx * sy - sy * sx)
        assert same(lincomb((1, a, b), (1, b, a)), sx * sy + sy * sx)
        assert_trace(a, sx)
        assert_trace(a @ b, sx * sy)

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
            cases = [(p @ q, sp * sq), (lincomb(term(c, p)), sp * to_sympy(c)),
                     (lincomb((-1, p)), -sp),
                     (lincomb((1, p, q), (-1, q, p)), sp * sq - sq * sp),
                     (lincomb((1, p, q), (1, q, p)), sp * sq + sq * sp),
                     (lincomb(term(c, p, q), term(c, q, p)),
                      to_sympy(c) * (sp * sq + sq * sp))]
            if phase(sp) is None or phase(sq) is None:
                cases += [(lincomb((1, p), (1, q)), sp + sq),
                          (lincomb((1, p), (-1, q)), sp - sq)]
            else:
                for form in (lambda: lincomb((1, p), (1, q)),
                             lambda: lincomb((1, p), (-1, q))):
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
    # One to four terms, each c x or c x y, an imaginary c passed as i x.
    # The terms with a nonzero coefficient and nonzero factors must share
    # one phase, that of c times those of x and y; otherwise lincomb raises.
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
        got = lambda: lincomb(*(term(c, *map(linop, ops)) for c, *ops in terms))
        if len(phases) > 1:
            with pytest.raises(ValueError, match="real and imaginary"):
                got()
        else:
            assert same(got(), want)

    check()


@pytest.mark.parametrize("scalar", [sparse_rationals, imaginaries],
                         ids=["Fraction", "imaginary"])
def test_lincomb_forms_of_ring_operations(scalar):
    # Every ring operation is a lincomb call: a product term equals the
    # term of the product, and a combination of combinations is one
    # combination; the sympy tests check each form against sympy.
    @settings(deadline=None, max_examples=25)
    @given(entries(scalar), entries(scalar), st.one_of(*COEFFICIENTS.values()))
    @phase_examples(PHASE_2X2)
    def check(x, y, c):
        a, b = linop(x), linop(y)
        assert a @ b == lincomb((1, a, b))
        assert lincomb((1, a, b), (-1, b, a)) == lincomb((1, a @ b), (-1, b @ a))
        assert lincomb((1, a, b), (1, b, a)) == lincomb((1, a @ b), (1, b @ a))
        assert lincomb(term(c, a, b)) == lincomb(term(c, a @ b))
        assert lincomb(term(c, a), term(-c, b)) \
            == lincomb((1, lincomb(term(c, a))), (-1, lincomb(term(c, b))))

    check()


def assert_canonical_zero(zero: LinOp, like: LinOp):
    assert not any(zero.nums) and zero.den == 1 and zero.phase == 0
    assert zero == lincomb((0, like))


@pytest.mark.parametrize("scalar", [sparse_rationals, imaginaries],
                         ids=["Fraction", "imaginary"])
def test_lincomb_cancels_to_canonical_zero(scalar):
    @settings(deadline=None, max_examples=25)
    @given(entries(scalar), entries(scalar), st.one_of(*COEFFICIENTS.values()))
    @phase_examples(PHASE_2X2)
    def check(x, y, c):
        a, b = linop(x), linop(y)
        for zero in (lincomb(term(c, a, b), term(-c, a, b)),
                     lincomb(term(c, a), term(c, b), term(-c, a), term(-c, b)),
                     lincomb((1, b, a), (-1, b @ a)),
                     lincomb(term(c, a, b), (-1, lincomb(term(c, a)), b))):
            assert_canonical_zero(zero, a)

    check()


def test_imaginary_sum_that_cancels_is_the_real_zero():
    a = linop(IMAGINARY_2X2[0])
    assert a.phase == 1
    # i (i a / 3) = -a / 3: every term below is imaginary.
    third = Fraction(1, 3)
    for zero in (lincomb((1, a), (-1, a)),
                 lincomb((third, a), (1, lincomb((third, a.times_i())).times_i())),
                 imaginary([{}, {}], 5)):
        assert_canonical_zero(zero, a)


@settings(deadline=None, max_examples=25)
@given(st.one_of(*MATRICES.values()))
@example(REAL_2X2[0])
@example(IMAGINARY_2X2[0])
def test_times_i_matches_sympy_and_has_order_four(x):
    a = linop(x)
    ia = a.times_i()
    assert same(ia, sympy.I * sym(x))
    # i keeps the numerators of a real matrix and negates those of an
    # imaginary one (i^2 = -1) over the same den, so the form stays canonical.
    sign = -1 if a.phase else 1
    assert (ia.nums, ia.den, ia.phase) == (
        tuple({i: sign * v for i, v in col.items()} for col in a.nums), a.den,
        1 - a.phase if a else 0)
    assert ia.times_i() == lincomb((-1, a))
    assert ia.times_i().times_i().times_i() == a


@pytest.mark.parametrize("n", [0, 1, 3])
def test_times_i_keeps_the_zero_matrix_the_real_zero(n):
    zero = lincomb((0, LinOp.identity(n)))
    for z in (zero.times_i(), zero.times_i().times_i(), imaginary([{}] * n, 4)):
        assert_canonical_zero(z, zero)
        assert not z


def test_trace_of_an_imaginary_matrix_raises():
    a = linop(IMAGINARY_2X2[0])
    with pytest.raises(ValueError, match="trace of an imaginary matrix"):
        a.trace()
    # i a is real: its trace is i times that of a.
    assert a.times_i().trace() == -sum(IMAGINARY_2X2[0][k].r for k in (0, 3))


def test_coefficients_are_rational():
    # A Gaussian-rational coefficient has no place in lincomb: i enters
    # only through times_i.
    c = GRat(Fraction(0), Fraction(1))
    a = linop(REAL_2X2[0])
    for form in (lambda: lincomb((c, a)), lambda: lincomb((1, a), (c, a, a))):
        with pytest.raises(AttributeError):
            form()


@pytest.mark.parametrize("n", [0, 1, 3])
def test_zero_matrix_is_falsy_at_every_size(n):
    eye = LinOp.identity(n)
    for zero in (lincomb((0, eye)), LinOp.real([{}] * n, 7), imaginary([{}] * n, 2),
                 lincomb((1, eye), (-1, eye)), lincomb((1, eye, eye), (-1, eye))):
        assert not zero and len(zero) == n


@pytest.mark.parametrize("block", [LinOp.real, imaginary])
def test_product_that_cancels_is_falsy(block):
    shift = block([{}, {0: 3}], 2)  # nonzero, with square zero
    assert shift and not shift @ shift and not lincomb((1, shift, shift), (0, shift))


@settings(deadline=None, max_examples=25)
@given(st.one_of(*MATRICES.values()))
def test_truthy_exactly_when_nonzero(x):
    a = linop(x)
    assert bool(a) == any(x) == (as_sympy(a) != sympy.zeros(N, N))
    assert not lincomb((1, a), (-1, a))


def test_lincomb_is_the_one_way_to_combine_matrices():
    """``@`` is the one operator on matrices: sums, differences, negations,
    multiples and (anti)commutators are each written as one ``lincomb``."""
    assert [name for name in ("__add__", "__sub__", "__neg__", "scale")
            if hasattr(LinOp, name)] == []
    assert [name for name in ("comm", "anticomm") if hasattr(bi_lab.linop, name)] == []


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


# The Poly3 reference of dunkl_dirac: the only code outside exact that
# may name GRat or a GRAT_* constant, and the import it reads them by.
GRAT_USERS = {"Poly3", "var_mul", "reflect", "dunkl_partial", "angular_momentum"}


def grat_names(path: Path) -> list[str]:
    """path:line of each name GRat or GRAT_* in a module, outside the
    ``GRAT_USERS`` definitions and the import of ``dunkl_dirac``."""
    found = []
    for top in ast.parse(path.read_text()).body:
        if path.name == "dunkl_dirac.py" and (
                isinstance(top, ast.ImportFrom)
                or getattr(top, "name", None) in GRAT_USERS):
            continue
        for node in ast.walk(top):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.id] if isinstance(node, ast.Name) else [])
            if any(n == "GRat" or n.startswith("GRAT_") for n in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_imaginary_unit_lives_in_the_phase_alone():
    """Outside ``exact`` only the ``Poly3`` reference names GRat: the slice
    matrices and the relations carry i as ``LinOp.phase``."""
    root = Path(bi_lab.__file__).parent
    assert [hit for path in sorted(root.glob("*.py")) if path.name != "exact.py"
            for hit in grat_names(path)] == []


def source_lines(text: str) -> dict[str, list[str]]:
    """Module name -> its stripped lines that contain text, for each module
    of ``bi_lab`` that has one."""
    root = Path(bi_lab.__file__).parent
    found = {path.name: [line.strip() for line in path.read_text().splitlines()
                         if text in line] for path in sorted(root.glob("*.py"))}
    return {name: lines for name, lines in found.items() if lines}


def test_checks_record_through_one_recorder():
    """Every check hands its residuals to ``VerificationReport.of``: outside
    ``report`` only the two route equalities of ``suite_polynomials`` and
    the build-failure entry of ``suite_racah`` record an entry by hand, and
    only ``suites`` and ``cli`` create a report of their own."""
    records = source_lines(".record(")
    assert set(records) <= {"report.py", "suites.py"}
    assert [line.split(",")[0] for line in records.get("suites.py", [])] == [
        'report.record("recurrence = hypergeometric"',
        'report.record("recurrence = operator eigensolve"',
        'report.record("exact tridiagonal representation"']
    assert set(source_lines("VerificationReport(")) <= {"report.py", "suites.py", "cli.py"}


@settings(deadline=None, max_examples=25)
@given(st.one_of(*MATRICES.values()))
def test_zero_entries_never_stored(x):
    a = linop(x)
    zero = lincomb((1, a), (-1, a))
    assert all(v for col in zero.nums + a.nums for v in col.values())
    assert zero == lincomb((0, a)) == lincomb((Fraction(0), a))
    assert a @ LinOp.identity(N) == a == LinOp.identity(N) @ a
    assert LinOp.identity(N) == LinOp.make({j: 1} for j in range(N)) \
        == LinOp.make({j: Fraction(1)} for j in range(N))


def inverse(c):
    return I(-1 / c.r) if isinstance(c, I) else 1 / c  # 1 / (i r) = -i / r


# The scalar c is drawn from a nonzero strategy over the same range: a
# filter on the mostly-zero sparse_rationals rejects too many draws.
@pytest.mark.parametrize("scalar, nonzero, unit",
                         [(sparse_rationals, rationals.filter(bool), Fraction),
                          (imaginaries, st.builds(I, rationals.filter(bool)), I)],
                         ids=["Fraction", "imaginary"])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_equality_is_canonical(scalar, nonzero, unit, data):
    a = linop(data.draw(entries(scalar)))
    c = data.draw(nonzero)
    assert lincomb(term(inverse(c), lincomb(term(c, a)))) == a
    assert_canonical_zero(lincomb((1, a), (-1, a)), a)
    i, j = data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, N - 1))
    e = linop([unit(Fraction(1, 10**30 + 57) if (r, col) == (i, j) else 0)
               for r in range(N) for col in range(N)])
    a_e = lincomb((1, a), (1, e))
    assert a_e != a
    assert lincomb((1, a_e), (-1, e)) == a


def test_size_mismatch_rejected():
    a = LinOp.identity(2)
    b = LinOp.identity(3)
    with pytest.raises(ValueError):
        a @ b
    for terms in (((1, a), (1, b)), ((1, a, b),), ((1, b, a),), ((2, a), (1, a, b))):
        with pytest.raises(ValueError):
            lincomb(*terms)


REAL = LinOp.real([{0: 3}, {0: 1, 1: -2}], 2)
IMAGINARY = imaginary([{1: 5}, {0: 1}], 3)


@pytest.mark.parametrize("terms", [
    ((1, REAL), (1, IMAGINARY)), ((1, REAL.times_i()), (1, REAL)),
    ((1, REAL, IMAGINARY), (1, REAL)), ((1, IMAGINARY.times_i()), (1, IMAGINARY)),
    ((1, IMAGINARY, IMAGINARY), (1, IMAGINARY)),
], ids=["R+I", "iR+R", "RI+R", "iI+I", "II+I"])
def test_lincomb_rejects_real_plus_imaginary(terms):
    with pytest.raises(ValueError, match="real and imaginary"):
        lincomb(*terms)
    with pytest.raises(ValueError, match="real and imaginary"):
        lincomb(*terms[::-1])


def test_zero_terms_of_the_other_phase_are_skipped():
    zero = lincomb((0, REAL))
    assert zero.phase == 0
    for c, other in ((1, REAL), (Fraction(1, 2), IMAGINARY), (-1, IMAGINARY.times_i())):
        want = lincomb((c, other))
        for skipped in ((0, IMAGINARY), (Fraction(0), IMAGINARY), (0, REAL.times_i()),
                        (0, REAL), (1, zero.times_i()), (1, IMAGINARY, zero),
                        (1, zero, IMAGINARY), (1, REAL.times_i(), zero)):
            for terms in (((c, other), skipped), (skipped, (c, other))):
                assert lincomb(*terms) == want, terms
    assert lincomb((1, zero.times_i()), (1, REAL, zero)) == zero


def test_len_is_the_size():
    assert len(LinOp.identity(0)) == 0
    assert len(LinOp.real([{}, {0: 1}, {}], 1)) == 3


def recorded_columns(monkeypatch, residuals, n):
    """The report that record_columns returns, and the (check, index, ok)
    of each call to ``VerificationReport.record`` it made."""
    calls = []

    def record(self, check, index, ok, detail="", _orig=VerificationReport.record):
        calls.append((check, index, ok))
        _orig(self, check, index, ok, detail)
    monkeypatch.setattr(VerificationReport, "record", record)
    return record_columns("columns", residuals, n), calls


def test_record_columns_one_call_per_entry_in_column_order(monkeypatch):
    # Column j of "a" is nonzero for even j, of "b" for j = 2 only; column 4
    # is past n. The returned report has the given title and runs column by
    # column, each column over the residuals in turn, one record call per entry.
    a = LinOp.real([{0: 1}, {}, {1: 2}, {}, {4: 1}], 1)
    b = LinOp.real([{}, {}, {3: 1}, {}, {}], 1)
    report, calls = recorded_columns(monkeypatch, [("a", a), ("b", b)], 4)
    assert report.title == "columns"
    assert calls == [("a", 0, False), ("b", 0, True), ("a", 1, True), ("b", 1, True),
                     ("a", 2, False), ("b", 2, False), ("a", 3, True), ("b", 3, True)]
    assert [(e.check, e.index, e.ok) for e in report.entries] == calls


@pytest.mark.parametrize("block", [LinOp.real, imaginary])
@pytest.mark.parametrize("j", range(4))
def test_record_columns_fails_exactly_the_nonzero_column(monkeypatch, block, j):
    zero = LinOp.real([{}] * 4, 1)
    residual = block([{(j + 1) % 4: 5} if c == j else {} for c in range(4)], 3)
    report, _ = recorded_columns(monkeypatch, [("zero", zero), ("r", residual)], 4)
    assert report.checked == 8
    assert [(e.check, e.index) for e in report.failures] == [("r", j)]


@settings(deadline=None, max_examples=25)
@given(st.one_of(*MATRICES.values()), st.integers(0, N))
@example(REAL_2X2[0] + [Fraction(0)] * 12, 1)
@example(IMAGINARY_2X2[0] + [I(Fraction(0))] * 12, 1)
def test_head_is_the_product_with_a_projector(x, m):
    # head(m) = A diag(1, ..., 1, 0, ..., 0) with m ones, in canonical form:
    # equal, field for field, to the matrix built from the kept entries.
    a, zero = linop(x), type(x[0])(Fraction(0))
    projector = sympy.diag(*([1] * m + [0] * (N - m)))
    assert same(a.head(m), sym(x) * projector)
    assert a.head(m) == linop([v if k % N < m else zero for k, v in enumerate(x)])
    assert a.head(m).phase == (a.phase if a.head(m) else 0)
    assert a.head(N) == a.head(N + 1) == a


@pytest.mark.parametrize("block", [LinOp.real, imaginary])
def test_head_keeps_the_size_and_the_phase(block):
    a = block([{0: 3, 2: -1}, {1: 5}, {0: 7}], 2)
    assert [a.head(m).nums for m in range(4)] == [
        ({}, {}, {}), ({0: 3, 2: -1}, {}, {}),
        ({0: 3, 2: -1}, {1: 5}, {}), a.nums]
    assert all(len(a.head(m)) == 3 and a.head(m).phase == a.phase for m in (1, 2, 3))
    assert_canonical_zero(a.head(0), a)


def test_head_reduces_again():
    # Dropping the column of the odd numerator leaves 2/2 = 1.
    a = LinOp.real([{0: 2}, {0: 1}], 2)
    assert a.head(1) == LinOp.real([{0: 1}, {}], 1)
    assert (a.head(1).nums, a.head(1).den) == (({0: 1}, {}), 1)
