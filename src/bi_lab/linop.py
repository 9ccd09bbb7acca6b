"""Exact sparse matrices of linear operators on one finite basis.

On a finite basis that the operators preserve, an identity between them
holds exactly when lhs - rhs is the zero matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .exact import GRat

Scalar = Union[Fraction, GRat]


@dataclass(frozen=True)
class LinOp:
    """Square matrix stored by columns: ``cols[j]`` maps a row index to the
    entry of column j, the image of basis vector j.  Entries are exact
    scalars of one type, ``Fraction`` or ``GRat``; zeros are never stored,
    so two matrices are equal exactly when their column dicts are."""

    cols: tuple[dict[int, Scalar], ...]

    @staticmethod
    def make(cols: Iterable[Mapping[int, Scalar]]) -> "LinOp":
        return LinOp(tuple({i: x for i, x in col.items() if x} for col in cols))

    @staticmethod
    def identity(n: int, one: Scalar) -> "LinOp":
        return LinOp(tuple({j: one} for j in range(n)))

    def __add__(self, other: "LinOp") -> "LinOp":
        return LinOp.make(_add_terms(a, b.items())
                          for a, b in zip(self.cols, other.cols, strict=True))

    def __sub__(self, other: "LinOp") -> "LinOp":
        return LinOp.make(_add_terms(a, ((i, -x) for i, x in b.items()))
                          for a, b in zip(self.cols, other.cols, strict=True))

    def __matmul__(self, other: "LinOp") -> "LinOp":
        if len(self.cols) != len(other.cols):
            raise ValueError("matrix sizes differ")
        return LinOp.make(
            _add_terms({}, ((i, a * b) for k, b in col.items()
                            for i, a in self.cols[k].items()))
            for col in other.cols
        )

    def scale(self, c: Scalar) -> "LinOp":
        return LinOp.make({i: x * c for i, x in col.items()} for col in self.cols)


def _add_terms(col: Mapping[int, Scalar], terms) -> dict[int, Scalar]:
    """col plus the (row, value) terms; LinOp.make drops the zero sums."""
    out = dict(col)
    for i, x in terms:
        prev = out.get(i)
        out[i] = x if prev is None else prev + x
    return out


def comm(a: LinOp, b: LinOp) -> LinOp:
    """[a, b] = ab - ba."""
    return a @ b - b @ a


def anticomm(a: LinOp, b: LinOp) -> LinOp:
    """{a, b} = ab + ba."""
    return a @ b + b @ a
