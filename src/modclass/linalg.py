"""Exact linear algebra over the rationals.

Everything here is built on ``fractions.Fraction``: no floating point
anywhere, so equality checks throughout the package are exact.  Matrices
are immutable and small (dimensions up to ~100), so plain fraction-reducing
Gaussian elimination is used instead of fraction-free variants.

``Matrix`` holds the inputs and results of the row reductions (``rref``,
``kernel_basis``, ``solve``, ``invert``) on small Gram and r# matrices;
it has no matrix products, sums or matrix-vector products.  The rest of
the package works on sparse vectors (see ``liealg``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

# Exact rationals: always lowest terms, positive denominator, zero is 0/1.
# The stdlib Fraction already guarantees every invariant we need.
Rational = Fraction

Vector = tuple[Fraction, ...]

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class NoSolutionError(ValueError):
    """Raised when a linear system is inconsistent."""


class SingularMatrixError(ValueError):
    """Raised when inverting a matrix of deficient rank."""


def rat(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction; reject floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not _RAT_RE.match(x.strip()):
            raise ValueError(f"not an exact rational: {x!r}")
        return Fraction(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact rational")


def unit_vector(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


class Matrix:
    """Immutable dense matrix with Fraction entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(tuple(rat(x) for x in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Fraction]]) -> "Matrix":
        if not columns:
            return cls([])
        n = len(columns[0])
        return cls([[col[i] for col in columns] for i in range(n)])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.entries
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"


class RowEchelon(NamedTuple):
    reduced: Matrix
    pivots: tuple[int, ...]
    rank: int


def rref(m: Matrix) -> RowEchelon:
    """Reduced row echelon form, with pivot columns and rank."""
    work = [list(row) for row in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
        work[r] = [inv * x for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return RowEchelon(Matrix(work), tuple(pivots), len(pivots))


def kernel_basis(m: Matrix) -> list[Vector]:
    """Canonical basis of the null space from the rref free-variable scheme.

    For each free column f the basis vector has a 1 at f and
    -reduced[i][f] at the i-th pivot column.
    """
    reduced, pivots, _ = rref(m)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i, f]
        basis.append(tuple(v))
    return basis


class Solution(NamedTuple):
    vector: Vector
    unique: bool


def solve(m: Matrix, b: Sequence[Fraction]) -> Solution:
    """One exact solution of m x = b, free variables set to zero.

    Raises NoSolutionError when the system is inconsistent; ``unique`` is
    False when the kernel is nonzero.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side has wrong length")
    augmented = Matrix([list(row) + [rb] for row, rb in zip(m.entries, b)])
    reduced, pivots, rank = rref(augmented)
    if pivots and pivots[-1] == m.cols:
        raise NoSolutionError("inconsistent linear system")
    x = [Fraction(0)] * m.cols
    for i, p in enumerate(pivots):
        x[p] = reduced[i, m.cols]
    return Solution(tuple(x), unique=(rank == m.cols))


def invert(m: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrixError on rank deficiency."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    augmented = Matrix(
        [list(m.entries[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    )
    reduced, pivots, rank = rref(augmented)
    if rank < n or any(p >= n for p in pivots):
        raise SingularMatrixError("matrix is singular")
    return Matrix([row[n:] for row in reduced.entries])
