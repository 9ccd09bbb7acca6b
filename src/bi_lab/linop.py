"""Exact sparse matrices of linear operators on one finite basis.

On a finite basis that the operators preserve, an identity between them
holds exactly when its residual lhs - rhs is the zero matrix, the one
falsy ``LinOp``: ``not residual``.

Every matrix is real or purely imaginary and is stored fraction-free, as
i^phase times integer numerators over one common denominator: sums and
products run on Python ints and reduce once per result.  The phase is
the one place the imaginary unit lives: entries and coefficients are
rational, and ``times_i`` is the one way to multiply a matrix by i.
``lincomb`` forms a whole linear combination of matrices and of products
of two, such as the residual of a relation, in one pass per output
column with no intermediate matrix, and is the one way to combine
matrices: ``@`` is one ``lincomb``.  Columns are never mutated once
stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .report import VerificationReport

Columns = tuple[dict[int, int], ...]


@dataclass(frozen=True)
class LinOp:
    """Square matrix i^phase nums / den stored by columns: ``nums[j]`` maps
    a row index to the integer numerator of the entry in column j, the
    image of basis vector j; phase 0 is real and phase 1 purely imaginary.

    The form is canonical: den > 0, no zero numerator is stored, the gcd of
    den and every numerator is 1, and the zero matrix is real with den 1.
    Two matrices are therefore equal exactly when their fields are.
    """

    nums: Columns
    den: int
    phase: int

    @staticmethod
    def make(cols: Iterable[Mapping[int, Fraction | int]]) -> "LinOp":
        """The real matrix with these columns of int or Fraction entries."""
        cols = [[(i, x) for i, x in col.items() if x] for col in cols]
        den = math.lcm(1, *(x.denominator for col in cols for _, x in col))
        # The lcm of reduced denominators leaves no common factor to cancel.
        return LinOp(tuple({i: x.numerator * (den // x.denominator) for i, x in col}
                           for col in cols), den, 0)

    @staticmethod
    def real(cols: Iterable[dict[int, int]], den: int) -> "LinOp":
        """The real matrix with these columns of nonzero integer numerators
        over den > 0, reduced once."""
        return _canonical(tuple(cols), den, 0)

    @staticmethod
    def identity(n: int) -> "LinOp":
        return LinOp(tuple({j: 1} for j in range(n)), 1, 0)

    def __len__(self) -> int:  # the size n of the n x n matrix
        return len(self.nums)

    def __bool__(self) -> bool:  # false exactly for the zero matrix
        return any(self.nums)

    def trace(self) -> Fraction:
        """The sum of the diagonal of a real matrix; an imaginary matrix
        raises ValueError."""
        if self.phase:
            raise ValueError("trace of an imaginary matrix")
        return Fraction(sum(col.get(j, 0) for j, col in enumerate(self.nums)), self.den)

    def times_i(self) -> "LinOp":
        """i times this matrix: a real matrix keeps its numerators and turns
        imaginary, an imaginary one turns real with its numerators negated
        (i^2 = -1), and the zero matrix stays the real zero."""
        if self.phase:
            return LinOp(tuple({i: -x for i, x in col.items()} for col in self.nums),
                         self.den, 0)
        return LinOp(self.nums, self.den, 1) if self else self

    def head(self, m: int) -> "LinOp":
        """This matrix times the projector onto basis vectors 0..m-1: the
        same size, with columns m, m+1, ... emptied, reduced again."""
        return _canonical(self.nums[:m] + ({},) * (len(self) - m), self.den, self.phase)

    def __matmul__(self, other: "LinOp") -> "LinOp":
        return lincomb((1, self, other))


def _accumulate(terms: list[tuple[Columns, Columns | None, int]], n: int) -> Columns:
    """The n columns of the sum of c a over the (a, None, c) of ``terms``
    and of c (a @ b) over their (a, b, c), one pass per output column;
    zero sums dropped.  Column j of a linear term is read as a @ 1."""
    if not terms:
        return ({},) * n
    out = []
    for j in range(n):
        acc = None
        for a, b, c in terms:
            for k, y in (b[j].items() if b is not None else ((j, 1),)):
                y *= c
                if acc is None:
                    acc = dict(a[k]) if y == 1 else {i: x * y for i, x in a[k].items()}
                    continue
                for i, x in a[k].items():
                    s = acc.get(i, 0) + x * y
                    if s:
                        acc[i] = s
                    else:
                        del acc[i]
        out.append({} if acc is None else acc)
    return tuple(out)


def _canonical(nums: Columns, den: int, phase: int) -> LinOp:
    """i^phase nums / den with the common factor of den and the numerators
    cancelled; the zero matrix gets den 1 and phase 0."""
    g = den
    for col in nums:
        if g == 1:
            break
        g = math.gcd(g, *col.values())
    if phase and not any(nums):
        phase = 0
    if g == 1:
        return LinOp(nums, den, phase)
    return LinOp(tuple({i: x // g for i, x in col.items()} for col in nums), den // g, phase)


def lincomb(*terms: tuple) -> LinOp:
    """The sum of c A over the terms (c, A) and of c (A @ B) over the terms
    (c, A, B): one term or more, c an int or Fraction, every matrix of
    one size.

    A term with a zero coefficient or factor is dropped.  The phase of
    each other term is the sum of the phases of A and B, with i^2 = -1
    folded into c; terms of two phases raise ValueError.  The terms are
    brought to one common denominator, each output column is formed in
    one pass over their integer numerators, and the whole is reduced once.
    """
    n, den, phase, scaled = len(terms[0][1].nums), 1, None, []
    for t in terms:
        c, a, b = t[0], t[1], t[2] if len(t) > 2 else None
        if len(a.nums) != n or b is not None and len(b.nums) != n:
            raise ValueError("matrix sizes differ")
        p, d = c.numerator, c.denominator * a.den
        if not p or not any(a.nums):
            continue
        e = a.phase
        if b is not None:
            if not any(b.nums):
                continue
            e += b.phase
            d *= b.den
        if e > 1:  # i^2 = -1
            p, e = -p, e - 2
        if phase is None:
            phase = e
        elif e != phase:
            raise ValueError("a sum of real and imaginary terms")
        den = math.lcm(den, d)
        scaled.append((a.nums, None if b is None else b.nums, p, d))
    terms = [(a, b, p * (den // d)) for a, b, p, d in scaled]
    return _canonical(_accumulate(terms, n), den, phase or 0)


def record_columns(report: VerificationReport,
                   residuals: list[tuple[str, LinOp]], n: int) -> None:
    """For each column j < n and each (name, residual) in turn, one entry
    (name, j) that holds when column j of the residual is zero."""
    for j in range(n):
        for name, residual in residuals:
            report.record(name, j, not residual.nums[j])
