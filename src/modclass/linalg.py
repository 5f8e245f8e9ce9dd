"""Exact linear algebra over the rationals, on sparse vectors.

Everything is built on ``fractions.Fraction``, so equality is exact.  A
``SparseVec`` (index -> nonzero Fraction) is the package's one vector type;
dense ``Vector`` tuples appear only in public results.  ``sparse`` is the
one coercion of user values to it, for ``Matrix`` and ``LieAlgebra`` alike.

A ``Matrix`` stores sparse rows, and ``rref``, ``kernel_basis``, ``solve``
and ``invert`` are one sparse Gauss-Jordan elimination (``_eliminate``).
The rref is unique, so each pivot is taken from the candidate row with the
fewest entries.  ``solve`` and ``invert`` pivot only in the matrix's own
columns and carry the right-hand side along, so the left block of their
reduction is the rref of the matrix: the null space that a system without
a unique answer reports comes from the same elimination.  Null spaces use
one free-variable scheme, ``null_space``, shared with ``liealg``.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from typing import NamedTuple

# Exact rationals: always lowest terms, positive denominator, zero is 0/1.
# The stdlib Fraction already guarantees every invariant we need.
Rational = Fraction

Vector = tuple[Fraction, ...]
SparseVec = dict[int, Fraction]

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class _KernelError(ValueError):
    def __init__(self, message: str, kernel: Sequence[Vector] = ()):
        self.kernel = list(kernel)
        super().__init__(message)


class NoSolutionError(_KernelError):
    """Raised when a linear system is inconsistent; ``kernel`` is the null
    space of its matrix, as ``kernel_basis`` would give it."""


class SingularMatrixError(_KernelError):
    """Raised when inverting a matrix of deficient rank; ``kernel`` is its
    null space, as ``kernel_basis`` would give it."""


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


def sparse(values: Mapping[int, object] | Sequence) -> SparseVec:
    """The nonzero entries of a dense sequence or a sparse mapping, as Fractions."""
    out: SparseVec = {}
    for k, c in values.items() if isinstance(values, Mapping) else enumerate(values):
        c = rat(c)
        if c:
            out[k] = c
    return out


def dense(v: SparseVec, n: int) -> Vector:
    """The dense tuple of a sparse vector of length n."""
    zero = Fraction(0)
    return tuple(v.get(k, zero) for k in range(n))


class Matrix:
    """Immutable matrix of exact rationals, stored as sparse rows.

    ``Matrix(rows)`` takes dense rows of equal length; ``Matrix(rows, cols)``
    takes rows of width ``cols``, dense or sparse.  ``rows`` and ``cols``
    are the shape, ``sparse_rows`` the entries.
    """

    __slots__ = ("rows", "cols", "sparse_rows")

    def __init__(self, rows: Iterable, cols: int | None = None):
        rows = list(rows)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if any(not isinstance(r, Mapping) and len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        data = tuple(sparse(r) for r in rows)
        if any(not 0 <= k < cols for r in data for k in r):
            raise ValueError("entry outside the matrix")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "sparse_rows", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return False
        return (self.cols, self.sparse_rows) == (other.cols, other.sparse_rows)

    def __hash__(self) -> int:
        return hash((self.cols, tuple(frozenset(r.items()) for r in self.sparse_rows)))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in dense(r, self.cols)) for r in self.sparse_rows)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _eliminate(
    rows: Iterable[SparseVec], ncols: int
) -> tuple[list[SparseVec], list[int], list[SparseVec]]:
    """Sparse Gauss-Jordan elimination on the columns below ``ncols``.

    Entries at columns ``ncols`` and beyond (an augmented block) are carried
    along but never chosen as pivots.  Returns the reduced pivot rows in
    pivot order, their pivot columns, and the rows left over, which are
    zero below ``ncols``.
    """
    work = [dict(r) for r in rows if r]
    done: list[SparseVec] = []
    pivots: list[int] = []
    for c in range(ncols):
        if not work:
            break
        # every remaining row is already zero before column c
        hits = [i for i, row in enumerate(work) if c in row]
        if not hits:
            continue
        row = work.pop(min(hits, key=lambda i: len(work[i])))
        lead = row[c]
        if lead != 1:
            row = {k: v / lead for k, v in row.items()}
        for other in (*work, *done):
            f = other.get(c)
            if f is None:
                continue
            for k, v in row.items():
                x = other.get(k, 0) - f * v
                if x:
                    other[k] = x
                else:
                    del other[k]
        done.append(row)
        pivots.append(c)
    return done, pivots, [r for r in work if r]


def null_space(rows: Sequence[SparseVec], pivots: Sequence[int], n: int) -> list[SparseVec]:
    """Null-space basis of an n-column matrix in rref, in the free-variable scheme.

    ``rows`` are its nonzero rows and ``pivots`` their pivot columns; for
    each free column f < n the basis vector is 1 at f and -rows[i][f] at
    pivots[i].  Entries at columns n and beyond are ignored.
    """
    pivot_set = set(pivots)
    out = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = {f: Fraction(1)}
        for p, row in zip(pivots, rows):
            c = row.get(f)
            if c:
                v[p] = -c
        out.append(v)
    return out


def _kernel(rows: Sequence[SparseVec], pivots: Sequence[int], n: int) -> list[Vector]:
    return [dense(v, n) for v in null_space(rows, pivots, n)]


class RowEchelon(NamedTuple):
    reduced: Matrix
    pivots: tuple[int, ...]
    rank: int


def rref(m: Matrix) -> RowEchelon:
    """Reduced row echelon form, with pivot columns and rank."""
    done, pivots, _ = _eliminate(m.sparse_rows, m.cols)
    reduced = Matrix(done + [{}] * (m.rows - len(done)), m.cols)
    return RowEchelon(reduced, tuple(pivots), len(pivots))


def kernel_basis(m: Matrix) -> list[Vector]:
    """Canonical basis of the null space, in the free-variable scheme of
    ``null_space``."""
    done, pivots, _ = _eliminate(m.sparse_rows, m.cols)
    return _kernel(done, pivots, m.cols)


class Solution(NamedTuple):
    vector: Vector
    kernel: list[Vector]

    @property
    def unique(self) -> bool:
        return not self.kernel


def solve(m: Matrix, b: Sequence[Fraction]) -> Solution:
    """One exact solution of m x = b, free variables set to zero.

    Raises NoSolutionError when the system is inconsistent; ``kernel`` is
    the null space of m, empty when the solution is unique.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side has wrong length")
    n = m.cols
    augmented = []
    for row, c in zip(m.sparse_rows, b):
        c = rat(c)
        augmented.append({**row, n: c} if c else row)
    done, pivots, rest = _eliminate(augmented, n)
    kernel = _kernel(done, pivots, n)
    if rest:
        raise NoSolutionError("inconsistent linear system", kernel)
    x = [Fraction(0)] * n
    for p, row in zip(pivots, done):
        x[p] = row.get(n, Fraction(0))
    return Solution(tuple(x), kernel)


def invert(m: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrixError on rank deficiency."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    augmented = [{**row, n + i: Fraction(1)} for i, row in enumerate(m.sparse_rows)]
    done, pivots, _ = _eliminate(augmented, n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular", _kernel(done, pivots, n))
    return Matrix([{k - n: v for k, v in row.items() if k >= n} for row in done], n)
