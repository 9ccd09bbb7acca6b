"""Exact sparse matrices of linear operators on one finite basis.

On a finite basis that the operators preserve, an identity between them
holds exactly when lhs - rhs is the zero matrix.

Entries lie in Q or Q(i).  A matrix is stored fraction-free: integer
numerators of the real and of the imaginary parts over one common
denominator.  Sums and products therefore run on Python ints and reduce
once per result, not once per entry.  ``lincomb`` forms a whole linear
combination of matrices and of products of two, such as one side of a
relation, in one pass per output column with no intermediate matrix.
``+``, ``-``, unary ``-``, ``scale``, ``@``, ``comm`` and ``anticomm`` are
one ``lincomb`` each, so every sum and product runs through its one
accumulation loop.  A real or a purely imaginary operand leaves one of its
two blocks empty, and products of an empty block are never formed.
Columns are never mutated once stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Union

from .exact import GRat
from .report import VerificationReport

Scalar = Union[Fraction, GRat]
Columns = tuple[dict[int, int], ...]


@dataclass(frozen=True)
class LinOp:
    """Square matrix (re + i im) / den stored by columns: ``re[j]`` and
    ``im[j]`` map a row index to the integer numerator of the real and of
    the imaginary part of the entry in column j, the image of basis vector j.

    The form is canonical: den > 0, no zero numerator is stored, and the
    gcd of den and every numerator is 1.  Two matrices are therefore equal
    exactly when their fields are.
    """

    re: Columns
    im: Columns
    den: int

    @staticmethod
    def make(cols: Iterable[Mapping[int, Scalar]]) -> "LinOp":
        """The matrix with these columns of Fraction or GRat entries."""
        cols = [[(i, *_re_im(x)) for i, x in col.items()] for col in cols]
        den = math.lcm(1, *(x.denominator for col in cols
                            for _, a, b in col for x in (a, b)))
        # The lcm of reduced denominators leaves no common factor to cancel.
        return LinOp(
            tuple({i: a.numerator * (den // a.denominator)
                   for i, a, _ in col if a} for col in cols),
            tuple({i: b.numerator * (den // b.denominator)
                   for i, _, b in col if b} for col in cols),
            den,
        )

    @staticmethod
    def real(cols: Iterable[dict[int, int]], den: int) -> "LinOp":
        """The real matrix with these columns of nonzero integer numerators
        over den > 0, reduced once."""
        re = tuple(cols)
        return _canonical(re, ({},) * len(re), den)

    @staticmethod
    def imaginary(cols: Iterable[dict[int, int]], den: int) -> "LinOp":
        """i times the real matrix with these columns of nonzero integer
        numerators over den > 0, reduced once."""
        im = tuple(cols)
        return _canonical(({},) * len(im), im, den)

    @staticmethod
    def identity(n: int) -> "LinOp":
        return LinOp(tuple({j: 1} for j in range(n)), ({},) * n, 1)

    def __len__(self) -> int:  # the size n of the n x n matrix
        return len(self.re)

    @property
    def cols(self) -> tuple[dict[int, Scalar], ...]:
        """The entries, column by column, as exact scalars: Fraction when
        the matrix is real, GRat otherwise.  Built anew on every access."""
        d = self.den
        if not any(self.im):
            return tuple({i: Fraction(x, d) for i, x in col.items()}
                         for col in self.re)
        return tuple(
            {i: GRat(Fraction(re.get(i, 0), d), Fraction(im.get(i, 0), d))
             for i in re.keys() | im.keys()}
            for re, im in zip(self.re, self.im)
        )

    def trace(self) -> Scalar:
        """The sum of the diagonal: Fraction when the matrix is real, GRat
        otherwise."""
        re, im = (Fraction(sum(col.get(j, 0) for j, col in enumerate(block)), self.den)
                  for block in (self.re, self.im))
        return GRat(re, im) if any(self.im) else re

    def __add__(self, other: "LinOp") -> "LinOp":
        return lincomb((1, self), (1, other))

    def __sub__(self, other: "LinOp") -> "LinOp":
        return lincomb((1, self), (-1, other))

    def __matmul__(self, other: "LinOp") -> "LinOp":
        return lincomb((1, self, other))

    def __neg__(self) -> "LinOp":
        return lincomb((-1, self))

    def scale(self, c: Scalar) -> "LinOp":
        return lincomb((c, self))

    @cached_property
    def _blocks(self) -> tuple[tuple[Columns, int], ...]:
        """The nonempty blocks, each with the power e of i it carries:
        (re, 0) and (im, 1)."""
        return tuple((x, e) for e, x in enumerate((self.re, self.im)) if any(x))


def _re_im(x: Scalar) -> tuple[Fraction | int, Fraction | int]:
    """Real and imaginary part; both have .numerator and .denominator."""
    return (x.re, x.im) if isinstance(x, GRat) else (x, 0)


# The second factor of a linear term c a: none, and no power of i.
_UNIT = ((None, 0),)


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


def _canonical(re: Columns, im: Columns, den: int) -> LinOp:
    """(re + i im) / den with the common factor of den and the numerators
    cancelled; the zero matrix gets den 1."""
    g = den
    for col in chain(re, im):
        if g == 1:
            break
        g = math.gcd(g, *col.values())
    if g == 1:
        return LinOp(re, im, den)
    return LinOp(tuple({i: x // g for i, x in col.items()} for col in re),
                 tuple({i: x // g for i, x in col.items()} for col in im),
                 den // g)


def lincomb(*terms: tuple) -> LinOp:
    """The sum of c A over the terms (c, A) and of c (A @ B) over the terms
    (c, A, B): one term or more, c an int, Fraction or GRat, every matrix
    of one size.

    Every term is brought to the lcm of the denominators of its c A or
    c A B, each output column is formed in one pass over the integer
    numerators of all terms, and the whole is reduced once.  Only the
    block products with a nonzero coefficient are formed: a product of a
    real and an imaginary matrix reads one block of each.
    """
    n, den, scaled = len(terms[0][1].re), 1, []
    for t in terms:
        c, a, b = t[0], t[1], t[2] if len(t) > 2 else None
        if type(c) is int:
            p, r, d = c, 0, a.den
        else:
            x, y = _re_im(c)
            q = math.lcm(x.denominator, y.denominator)
            p, r = x.numerator * (q // x.denominator), y.numerator * (q // y.denominator)
            d = q * a.den
        if b is not None:
            d *= b.den
        if len(a.re) != n or b is not None and len(b.re) != n:
            raise ValueError("matrix sizes differ")
        den = math.lcm(den, d)
        scaled.append((p, r, d, a, b))
    re, im = [], []
    for p, r, d, a, b in scaled:
        f = den // d
        for x, ex in a._blocks:
            for y, ey in (b._blocks if b is not None else _UNIT):
                # (p + i r) i^e f, e the number of imaginary blocks
                cr, ci = (p, r) if ex + ey == 0 else (-r, p) if ex + ey == 1 else (-p, -r)
                if cr:
                    re.append((x, y, f * cr))
                if ci:
                    im.append((x, y, f * ci))
    return _canonical(_accumulate(re, n), _accumulate(im, n), den)


def comm(a: LinOp, b: LinOp) -> LinOp:
    """[a, b] = ab - ba."""
    return lincomb((1, a, b), (-1, b, a))


def anticomm(a: LinOp, b: LinOp) -> LinOp:
    """{a, b} = ab + ba."""
    return lincomb((1, a, b), (1, b, a))


def record_columns(report: VerificationReport,
                   residuals: list[tuple[str, LinOp]], n: int) -> None:
    """For each column j < n and each (name, residual) in turn, one entry
    (name, j) that holds when column j of the residual is zero."""
    for j in range(n):
        for name, residual in residuals:
            report.record(name, j, not (residual.re[j] or residual.im[j]))
