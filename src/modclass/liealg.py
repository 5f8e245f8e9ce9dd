"""Lie algebras over the rationals, exterior algebra, and cohomology.

A Lie algebra is given by structure constants on a labeled basis; brackets
are stored sparsely for index pairs i < j only, so antisymmetry is
structural.  Multivectors and cochains are sparse maps from strictly
increasing index tuples to rational coefficients.

Orientation conventions used consistently in this package:

* wedge products embed in the tensor algebra without 1/k! factors, and a
  k-cochain evaluates on k vectors as the determinant of the pairing
  matrix, so (a* ^ b*)(x, y) = a*(x) b*(y) - a*(y) b*(x);
* the interior product contracts the first slot:
  i_a(x ^ y) = <a, x> y - <a, y> x;
* the cohomology differential is oriented so that for a 1-cochain xi,
  (d xi)(x, y) = xi([x, y]).  Degree-one coboundaries therefore produce
  the bilinear form xi([.,.]) directly, which keeps the bivector/cochain
  inversion and the Yang-Baxter verification in this package mutually
  consistent.

Every exact sum over the bracket table runs on Python ints, over one
``IntegerTable`` per algebra, built once on first use
(``LieAlgebra.integer_table``): the lcm D of the table's denominators and
the by-output index of the table scaled by D, which lists the terms of
D d e*_m for every m.  The Jacobi identity is checked as d d e*_m = 0 for
every m, one pair of table terms at a time, not triple by triple: triples
that no nonzero product reaches are never visited, and since
J(D c) = D^2 J(c) the integer sums vanish exactly where the rational ones
do.  Every integer pass, here and in ``twisted``, sums into one int
accumulator over the lcm of its operands' denominators (``lcm_den``):
``ce_differential`` over q D, with q the lcm of the cochain's
denominators; the Yang-Baxter residual and the dual brackets over the
lcms of the denominators of r, psi, the table and the vectors.  So a zero
sum cancels in ints and only nonzero keys become Fractions.  The index
sets of ``ce_differential`` are bit masks, not tuples, over the mask
index, a part of ``IntegerTable`` built lazily from the by-output index
the first time a nonzero cochain asks for it and read only by
``ce_differential``; only the nonzero sums are turned back into tuples.
``LieAlgebra.bracket``, which builds only the witness of a span that is
not closed, looks up one table entry per pair of entries.

A ``Multivector`` or ``Cochain`` keeps a term's Fraction as given when its
sorted index slot is new, and adds or subtracts only when a slot repeats.

Vectors are the ``SparseVec`` dicts of ``linalg``: ``LieAlgebra.bracket``
takes and returns them, and a ``Subalgebra`` is the sparse rows of its
rref basis; its dense ``basis`` is built on first read.  Dense tuples
appear only at the public boundary (``basis``, ``basis_vector``,
``from_coords``, witnesses).  No table of a subalgebra p is built: its
sums read the by-output index of the parent along the rows of p.
``span_subalgebra`` checks closure (``Subalgebra.check_closed``); the
carrier of a verified structure is closed by theorem (see ``twisted``).
``restrict_cochain`` pulls each term back along the rows (``pullback``),
which agrees with the determinant rule of ``Cochain.evaluate``, the test
suite's oracle.
``annihilator`` reads ann(p) off the rows by ``linalg.null_space``.

A subalgebra p acts on g/p and, by the coadjoint action, on the
annihilator ann(p).  Only the characters (traces) of these two actions
enter the modular class, so no action matrix is formed: ``trace_adjoint``
and ``coadjoint_character`` share one loop over the by-output index
along the rows of p.  The two are dual, so the characters are opposite;
the computation of the modular class uses that as a cross-check.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Matrix, SparseVec, Vector, dense, null_space, rat, rref, sparse


class JacobiViolationError(ValueError):
    """A bracket table that fails the Jacobi identity."""

    def __init__(self, triple: tuple[int, int, int], residual: Vector):
        self.triple = triple
        self.residual = residual
        super().__init__(f"Jacobi identity fails at basis triple {triple}")


class NotClosedError(ValueError):
    """A span that is not closed under the bracket."""

    def __init__(self, witness: tuple[Vector, Vector, Vector]):
        self.witness = witness
        super().__init__("span is not closed under the bracket")


def _sort_with_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort an index tuple, returning the permutation sign (0 if repeated)."""
    idx = list(indices)
    sign = 1
    # insertion sort; counts transpositions exactly
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


@dataclass(frozen=True)
class JacobiReport:
    ok: bool
    triple: tuple[int, int, int] | None = None
    residual: Vector | None = None


def lcm_den(values: Iterable[Fraction]) -> int:
    """The lcm of the denominators of these Fractions; 1 for none."""
    return math.lcm(*(c.denominator for c in values))


class IntegerTable:
    """The bracket table scaled to integers by D, the lcm of its denominators.

    ``LieAlgebra.integer_table`` builds it once per algebra.
    ``by_output[m]`` lists (i, j, w) with w the e_m-coefficient of
    D [e_i, e_j], i < j, so D d e*_m = sum of w e*_i ^ e*_j.  One more
    part, the mask index, is built from it on first use and read only by
    ``ce_differential``: ``masks[m]`` lists, for each (i, j, w) of
    ``by_output[m]``, (bit_i | bit_j, the bits strictly between i and j,
    w, -w), with bit_k = 1 << k.
    """

    __slots__ = ("scale", "by_output", "_masks")

    def __init__(self, dim: int, table: dict[tuple[int, int], SparseVec]):
        scale = lcm_den(c for entry in table.values() for c in entry.values())
        out: list[list[tuple[int, int, int]]] = [[] for _ in range(dim)]
        for (i, j), entry in table.items():
            for m, c in entry.items():
                out[m].append((i, j, c.numerator * (scale // c.denominator)))
        self.scale = scale
        self.by_output = out
        self._masks: list[list[tuple[int, int, int, int]]] | None = None

    @property
    def masks(self) -> list[list[tuple[int, int, int, int]]]:
        if self._masks is None:
            self._masks = [
                [((1 << i) | (1 << j), (1 << j) - (2 << i), w, -w) for i, j, w in terms]
                for terms in self.by_output
            ]
        return self._masks


class LieAlgebra:
    """Finite-dimensional Lie algebra given by structure constants."""

    __slots__ = ("dim", "labels", "table", "_index", "_ints")

    def __init__(
        self,
        labels: Sequence[str],
        table: Mapping[tuple[int, int], Mapping[int, Fraction] | Sequence],
        *,
        check: bool = True,
    ):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be distinct")
        n = len(labels)
        clean: dict[tuple[int, int], SparseVec] = {}
        for key, value in table.items():
            i, j = key
            if not (0 <= i < j < n):
                raise ValueError(f"bracket key {key} must satisfy 0 <= i < j < dim")
            entries = sparse(value)
            if any(not 0 <= k < n for k in entries):
                raise ValueError("bracket value index out of range")
            if entries:
                clean[key] = entries
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "table", clean)
        object.__setattr__(self, "_index", {lab: k for k, lab in enumerate(labels)})
        object.__setattr__(self, "_ints", None)
        if check:
            report = self.check_jacobi()
            if not report.ok:
                raise JacobiViolationError(report.triple, report.residual)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    def index(self, label: str) -> int:
        return self._index[label]

    def basis_vector(self, i: int) -> Vector:
        return dense({i: Fraction(1)}, self.dim)

    def bracket_basis(self, i: int, j: int) -> SparseVec:
        """[e_i, e_j] as a sparse vector, any index order."""
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        entry = self.table.get((j, i), {})
        return {k: -c for k, c in entry.items()}

    def pair_entry(self, i: int, j: int) -> tuple[SparseVec | None, int]:
        """Table entry and orientation sign for any index order, no copying."""
        if i < j:
            return self.table.get((i, j)), 1
        if j < i:
            return self.table.get((j, i)), -1
        return None, 0

    def integer_table(self) -> IntegerTable:
        """The table scaled to integers (see ``IntegerTable``); built once and
        cached.  Every integer pass over the table reads it."""
        if self._ints is None:
            object.__setattr__(self, "_ints", IntegerTable(self.dim, self.table))
        return self._ints

    def bracket(self, x: SparseVec, y: SparseVec) -> SparseVec:
        """[x, y] of two sparse vectors, one table entry per pair of their
        entries; the result stores no zeros.  An index outside the basis
        raises IndexError."""
        if any(not 0 <= k < self.dim for k in itertools.chain(x, y)):
            raise IndexError("vector index outside the basis")
        out: SparseVec = {}
        for i, xc in x.items():
            for j, yc in y.items():
                entry, sign = self.pair_entry(i, j)
                if entry:
                    f = xc * yc if sign > 0 else -xc * yc
                    for k, c in entry.items():
                        out[k] = out.get(k, 0) + f * c
        return {k: c for k, c in out.items() if c}

    def jacobiator(self, i: int, j: int, k: int) -> Vector:
        """Sum of [[e_i,e_j],e_k] over cyclic permutations of (i,j,k)."""
        out = [Fraction(0)] * self.dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            outer, s1 = self.pair_entry(a, b)
            if not outer:
                continue
            for m, cm in outer.items():
                inner, s2 = self.pair_entry(m, c)
                if not inner:
                    continue
                f = cm if s1 * s2 > 0 else -cm
                for t, ct in inner.items():
                    out[t] += f * ct
        return tuple(out)

    def check_jacobi(self) -> JacobiReport:
        """Jacobi identity on every basis triple, as d d e*_m = 0 for every m.

        d extends to 2-cochains as an antiderivation, d(e*_i ^ e*_j) =
        d e*_i ^ e*_j - e*_i ^ d e*_j, and the (a, b, c)-coefficient of
        d d e*_m is, up to a sign, the e_m-coefficient of the jacobiator of
        a < b < c; so a triple fails exactly when it has a nonzero
        coefficient in some d d e*_m.  Each term (i, j, w) of d e*_m and
        each term of d e*_i or d e*_j make one product of two table
        entries; triples that no product reaches are never visited.  The
        sums run on ints, over ``IntegerTable.by_output``, the table scaled
        by D, the lcm of its denominators, and J(D c) = D^2 J(c), so they
        vanish exactly where the rational ones do.  The witness is the
        lexicographically first failing triple, with its ``jacobiator``.
        """
        d1 = self.integer_table().by_output
        failing: set[tuple[int, int, int]] = set()
        for terms in d1:
            acc: dict[tuple[int, int, int], int] = {}
            for i, j, w in terms:
                # d e*_i ^ e*_j: put j into the sorted pair (p, q)
                for p, q, v in d1[i]:
                    if j > q:
                        key, x = (p, q, j), w * v
                    elif j < p:
                        key, x = (j, p, q), w * v
                    elif p < j < q:
                        key, x = (p, j, q), -w * v
                    else:
                        continue
                    acc[key] = acc.get(key, 0) + x
                # -e*_i ^ d e*_j: put i into the sorted pair (p, q)
                for p, q, v in d1[j]:
                    if i < p:
                        key, x = (i, p, q), -w * v
                    elif i > q:
                        key, x = (p, q, i), -w * v
                    elif p < i < q:
                        key, x = (p, i, q), w * v
                    else:
                        continue
                    acc[key] = acc.get(key, 0) + x
            failing.update(key for key, x in acc.items() if x)
        if failing:
            triple = min(failing)
            return JacobiReport(False, triple, self.jacobiator(*triple))
        return JacobiReport(True)

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, labels={list(self.labels)})"


def check_jacobi(g: LieAlgebra) -> JacobiReport:
    return g.check_jacobi()


# ---------------------------------------------------------------------------
# Sparse exterior algebra


class _Alternating:
    """Shared implementation of sparse multivectors and cochains."""

    __slots__ = ("dim", "degree", "terms")

    def __init__(
        self,
        dim: int,
        degree: int,
        terms: Mapping[tuple[int, ...], Fraction] | Iterable = (),
    ):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[tuple[int, ...], Fraction] = {}
        for idx, coeff in items:
            if type(coeff) is not Fraction:
                coeff = rat(coeff)
            if not coeff:
                continue
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError(f"index tuple {idx} has wrong length for degree {degree}")
            # an increasing tuple is its own sorted slot, with sign +1
            sidx, sign = idx, 1
            for t in range(1, degree):
                if idx[t - 1] >= idx[t]:
                    sidx, sign = _sort_with_sign(idx)
                    break
            if degree and not (0 <= sidx[0] and sidx[-1] < dim):
                raise ValueError(f"index out of range in {idx}")
            if not sign:
                continue
            old = clean.get(sidx)
            if old is None:
                clean[sidx] = coeff if sign > 0 else -coeff
            else:
                new = old + coeff if sign > 0 else old - coeff
                if new:
                    clean[sidx] = new
                else:
                    del clean[sidx]
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, degree: int):
        return cls(dim, degree)

    @classmethod
    def basis(cls, dim: int, i: int):
        return cls(dim, 1, {(i,): Fraction(1)})

    @classmethod
    def from_covector(cls, values: Sequence[Fraction]):
        return cls(len(values), 1, {(i,): rat(c) for i, c in enumerate(values)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, *indices: int) -> Fraction:
        sidx, sign = _sort_with_sign(indices)
        if sign == 0:
            return Fraction(0)
        return sign * self.terms.get(sidx, Fraction(0))

    def to_vector(self) -> Vector:
        if self.degree != 1:
            raise ValueError("only degree-1 elements are plain vectors")
        return tuple(
            self.terms.get((i,), Fraction(0)) for i in range(self.dim)
        )

    def _binop(self, other, f):
        if type(self) is not type(other) or self.dim != other.dim or self.degree != other.degree:
            raise ValueError("mismatched operands")
        keys = set(self.terms) | set(other.terms)
        return type(self)(
            self.dim,
            self.degree,
            {
                k: f(self.terms.get(k, Fraction(0)), other.terms.get(k, Fraction(0)))
                for k in keys
            },
        )

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __neg__(self):
        return type(self)(self.dim, self.degree, {k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar):
        s = rat(scalar)
        return type(self)(self.dim, self.degree, {k: s * c for k, c in self.terms.items()})

    __rmul__ = __mul__

    def wedge(self, other):
        if type(self) is not type(other):
            raise ValueError("wedge requires operands of the same kind")
        if self.dim != other.dim:
            raise ValueError("wedge requires the same underlying space")
        acc: dict[tuple[int, ...], Fraction] = {}
        for ia, ca in self.terms.items():
            for ib, cb in other.terms.items():
                sidx, sign = _sort_with_sign(ia + ib)
                if sign == 0:
                    continue
                new = acc.get(sidx, Fraction(0)) + sign * ca * cb
                if new == 0:
                    acc.pop(sidx, None)
                else:
                    acc[sidx] = new
        return type(self)(self.dim, self.degree + other.degree, acc)

    def evaluate(self, *duals: Sequence[Fraction]) -> Fraction:
        """Pair against ``degree`` many elements of the dual space (det rule)."""
        if len(duals) != self.degree:
            raise ValueError(f"expected {self.degree} arguments")
        if any(len(v) != self.dim for v in duals):
            raise ValueError("argument dimension mismatch")
        total = Fraction(0)
        for idx, coeff in self.terms.items():
            d = _det([[v[i] for v in duals] for i in idx])
            if d:
                total += coeff * d
        return total

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self.dim == other.dim
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((type(self).__name__, self.dim, self.degree, tuple(sorted(self.terms.items()))))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return f"{type(self).__name__}(dim={self.dim}, degree={self.degree}, 0)"
        body = " + ".join(f"{c}*{idx}" for idx, c in self.sorted_terms())
        return f"{type(self).__name__}(dim={self.dim}, {body})"


def _det(rows: list[list[Fraction]]) -> Fraction:
    """Laplace expansion along the first row, skipping its zero entries."""
    if not rows:
        return Fraction(1)
    total = Fraction(0)
    for j, x in enumerate(rows[0]):
        if x:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += x * _det(minor) if j % 2 == 0 else -x * _det(minor)
    return total


class Multivector(_Alternating):
    """Element of the k-th exterior power of the algebra."""


class Cochain(_Alternating):
    """Element of the k-th exterior power of the dual (trivial coefficients)."""


def pair(c: Cochain, m: Multivector) -> Fraction:
    """Full duality pairing of a k-cochain with a k-multivector."""
    if c.degree != m.degree or c.dim != m.dim:
        raise ValueError("pairing requires equal degree and dimension")
    total = Fraction(0)
    small, large = (c.terms, m.terms) if len(c.terms) <= len(m.terms) else (m.terms, c.terms)
    for idx, coeff in small.items():
        other = large.get(idx)
        if other is not None:
            total += coeff * other
    return total


def interior(alpha: Cochain, m: Multivector) -> Multivector:
    """Contraction of a 1-cochain into the first slot of a multivector."""
    if not isinstance(alpha, Cochain) or alpha.degree != 1:
        raise ValueError("interior product expects a 1-cochain")
    if m.degree == 0:
        raise ValueError("cannot contract a degree-0 multivector")
    if alpha.dim != m.dim:
        raise ValueError("dimension mismatch")
    cov = alpha.to_vector()
    acc: dict[tuple[int, ...], Fraction] = {}
    for idx, coeff in m.terms.items():
        for t, a in enumerate(idx):
            ca = cov[a]
            if ca == 0:
                continue
            rest = idx[:t] + idx[t + 1 :]
            sign = -1 if t % 2 else 1
            new = acc.get(rest, Fraction(0)) + sign * ca * coeff
            if new == 0:
                acc.pop(rest, None)
            else:
                acc[rest] = new
    return Multivector(m.dim, m.degree - 1, acc)


def transpose(rows: Sequence[SparseVec], width: int) -> list[SparseVec]:
    """The sparse rows of the transpose of the matrix with these sparse
    rows of length ``width``: row i of the result maps s to rows[s][i]."""
    out: list[SparseVec] = [{} for _ in range(width)]
    for s, row in enumerate(rows):
        for i, x in row.items():
            out[i][s] = x
    return out


def pullback(c: _Alternating, rows: Sequence[SparseVec]):
    """The pullback of a cochain along e_s -> rows[s], with value
    c(rows[s_1], ..., rows[s_k]) at s_1 < ... < s_k; for a multivector, the
    pushforward along the map with these matrix rows (``transpose`` of its
    columns).  A term coeff e*_(i_1) ^ ... ^ e*_(i_k) adds coeff *
    rows[s_1][i_1] * ... * rows[s_k][i_k], with the sign of sorting the
    distinct s_t, which expands the determinant rule of ``Cochain.evaluate``.
    """
    column = transpose(rows, c.dim)
    acc: dict[tuple[int, ...], Fraction] = {}
    for idx, coeff in c.terms.items():
        choices = [column[i] for i in idx]
        if not all(choices):
            continue
        for pick in itertools.product(*(choice.items() for choice in choices)):
            key, sign = _sort_with_sign([s for s, _ in pick])
            if sign == 0:
                continue
            value = coeff if sign > 0 else -coeff
            for _, x in pick:
                value *= x
            old = acc.get(key)
            acc[key] = value if old is None else old + value
    return type(c)(len(rows), c.degree, acc)


def ce_differential(g: LieAlgebra, c: Cochain) -> Cochain:
    """Cohomology differential with this package's orientation.

    On basis covectors d e*_m = sum of structure constants c^m_{ij} e*_i ^ e*_j,
    extended to higher degree as an antiderivation; equivalently
    (d c)(x_0, ..., x_k) = sum over i < j of (-1)^(i+j+1)
    c([x_i, x_j], x_0, ..., omitting x_i and x_j, ..., x_k).
    """
    if c.dim != g.dim:
        raise ValueError("cochain dimension does not match the algebra")
    if c.degree == 0:
        return Cochain.zero(g.dim, 1)
    if not c.terms:
        return Cochain.zero(g.dim, c.degree + 1)
    # the sums run on ints, over the table scaled by T (``integer_table``)
    # and c scaled by q, the lcm of its denominators, in one accumulator
    # over q T.  An increasing index tuple is keyed by its bit mask: putting
    # i < j into rest passes one transposition per bit of rest below i and
    # one per bit below j, and since i is not in rest, that count has the
    # parity of the bits of rest strictly between i and j
    view = g.integer_table()
    masks = view.masks
    q = lcm_den(c.terms.values())
    acc: dict[int, int] = {}
    for idx, coeff in c.terms.items():
        full = 0
        for m in idx:
            full |= 1 << m
        num = coeff.numerator * (q // coeff.denominator)
        for t, m in enumerate(idx):
            rest = full ^ (1 << m)
            f = -num if t % 2 else num
            for bij, between, w, nw in masks[m]:
                if rest & bij:
                    continue
                key = rest | bij
                acc[key] = acc.get(key, 0) + (nw if (rest & between).bit_count() & 1 else w) * f
    den = q * view.scale
    return Cochain(g.dim, c.degree + 1, [(_bits(key), Fraction(v, den)) for key, v in acc.items() if v])


def _bits(key: int) -> tuple[int, ...]:
    """The set bits of a mask as an increasing index tuple."""
    out = []
    while key:
        low = key & -key
        out.append(low.bit_length() - 1)
        key ^= low
    return tuple(out)


# ---------------------------------------------------------------------------
# Subalgebras and the characters of their actions


class Subalgebra:
    """A bracket-closed subspace with a canonical (rref) basis.

    ``rows[s]``, a sparse vector, is 1 at its pivot coordinate ``pivots[s]``
    and 0 at the other pivots; the remaining coordinates, ``complement``,
    index the canonical complement, spanned by their unit vectors.
    ``basis`` gives the same basis as dense tuples, built on first read.
    The constructor takes closure on trust: ``span_subalgebra`` checks it
    (``check_closed``), and ``twisted.carrier_and_kernel`` checks it
    unless the structure is verified.
    """

    __slots__ = ("parent", "rows", "pivots", "complement", "_slot", "_basis")

    def __init__(self, parent: LieAlgebra, rows: Sequence[SparseVec], pivots: Sequence[int]):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "_basis", None)
        pivot_set = set(pivots)
        object.__setattr__(
            self, "complement", tuple(i for i in range(parent.dim) if i not in pivot_set)
        )
        object.__setattr__(self, "_slot", {p: s for s, p in enumerate(self.pivots)})

    def __setattr__(self, name, value):
        raise AttributeError("Subalgebra is immutable")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple[Vector, ...]:
        if self._basis is None:
            object.__setattr__(self, "_basis", tuple(dense(r, self.parent.dim) for r in self.rows))
        return self._basis

    def coords_of(self, v: SparseVec) -> SparseVec | None:
        """Sparse coordinates of v in the canonical basis, or None if outside.

        The coordinate at b_s is v's entry at the pivot p_s; only the rows
        with a nonzero coordinate are subtracted from v.
        """
        coords = {self._slot[k]: c for k, c in v.items() if k in self._slot}
        residual = dict(v)
        for s, c in coords.items():
            for k, x in self.rows[s].items():
                residual[k] = residual.get(k, 0) - c * x
        if any(residual.values()):
            return None
        return coords

    def from_coords(self, coords: Sequence[Fraction]) -> Vector:
        out = [Fraction(0)] * self.parent.dim
        for c, row in zip(coords, self.rows, strict=True):
            if c != 0:
                for k, x in row.items():
                    out[k] += c * x
        return tuple(out)

    def labels(self) -> tuple[str, ...]:
        """A unit row takes its parent label (its one entry is at its pivot);
        row s otherwise is ``v{s}``, primed while that is a parent label."""
        out = []
        for s, (p, row) in enumerate(zip(self.pivots, self.rows)):
            name = self.parent.labels[p] if row == {p: 1} else f"v{s}"
            while row != {p: 1} and name in self.parent._index:
                name += "'"
            out.append(name)
        return tuple(out)

    def check_closed(self) -> None:
        """Raise NotClosedError unless the span is closed under the bracket.

        [b_s, b_t] lies in the span exactly when every canonical annihilator
        covector gamma vanishes on it: when the pullback of d gamma along
        the rows has no term at (s, t).  The witness is the first such pair,
        with its bracket, densely.
        """
        g = self.parent
        failing: set[tuple[int, ...]] = set()
        for gamma in annihilator(g, self):
            failing.update(pullback(ce_differential(g, gamma), self.rows).terms)
        if failing:
            s, t = min(failing)
            w = dense(g.bracket(self.rows[s], self.rows[t]), g.dim)
            raise NotClosedError((dense(self.rows[s], g.dim), dense(self.rows[t], g.dim), w))

    def restrict_cochain(self, c: Cochain) -> Cochain:
        """Pull a cochain on the parent back along the inclusion, the map
        b_s -> rows[s] (``pullback``)."""
        if c.dim != self.parent.dim:
            raise ValueError("cochain is not on the parent algebra")
        return pullback(c, self.rows)

    def extend_cochain_by_zero(self, c: Cochain) -> Cochain:
        """Extend a 1-cochain on the subalgebra to the parent.

        The extension vanishes on the canonical complement coordinates.
        Since b_s is 1 at its pivot p_s and 0 at the other pivots, it puts
        c(b_s) at p_s and 0 everywhere else.
        """
        if c.degree != 1 or c.dim != self.dim:
            raise ValueError("expected a 1-cochain on the subalgebra")
        return Cochain(
            self.parent.dim, 1, {(self.pivots[s],): v for (s,), v in c.terms.items()}
        )


def span_subalgebra(g: LieAlgebra, vectors: Sequence[Vector | SparseVec]) -> Subalgebra:
    """Canonicalize a spanning set of dense or sparse vectors and verify
    bracket closure."""
    reduced, pivots, rank = rref(Matrix(vectors, g.dim))
    sub = Subalgebra(g, reduced.sparse_rows[:rank], pivots)
    sub.check_closed()
    return sub


def whole_algebra(g: LieAlgebra) -> Subalgebra:
    return span_subalgebra(g, [g.basis_vector(i) for i in range(g.dim)])


def annihilator(g: LieAlgebra, p: Subalgebra) -> list[Cochain]:
    """Canonical basis of the covectors vanishing on the subalgebra.

    The basis rows of p are in rref, so this is their null space in the
    free-variable scheme of ``linalg.null_space``, which ``kernel_basis``
    also uses: for each complement coordinate f, 1 at f and -rows[s][f] at
    each pivot p_s.
    """
    return [
        Cochain(g.dim, 1, {(k,): c for k, c in v.items()})
        for v in null_space(p.rows, p.pivots, g.dim)
    ]


def _trace_pairs(g: LieAlgebra, rows: Sequence[SparseVec], pairs) -> Cochain:
    """The 1-cochain b_s -> sum over (v, gamma) in ``pairs`` of
    gamma([b_s, v]), for sparse rows b_s and vectors v of g and the terms
    gamma of 1-cochains: each term (i, j, w) of D d e*_m (``by_output``)
    adds gamma[m] w (b_s[i] v[j] - b_s[j] v[i]) / D."""
    view = g.integer_table()
    column = transpose(rows, g.dim)
    out = [0] * len(rows)
    for v, gamma in pairs:
        for (m,), c in gamma.items():
            for i, j, w in view.by_output[m]:
                for a, b, f in ((i, j, w), (j, i, -w)):
                    y = v.get(b)
                    if y is not None:
                        fy = c * f * y
                        for s, x in column[a].items():
                            out[s] += fy * x
    return Cochain(len(rows), 1, {(s,): Fraction(v, view.scale) for s, v in enumerate(out)})


def _check_parent(g: LieAlgebra, p: Subalgebra) -> None:
    """Raise ValueError unless p lies in g: equal labels and table."""
    h = p.parent
    if h is not g and (h.labels != g.labels or h.table != g.table):
        raise ValueError("the subalgebra does not lie in this algebra")


def trace_adjoint(p: LieAlgebra | Subalgebra) -> Cochain:
    """The 1-cochain b_s -> Tr(ad_(b_s)|p) on the canonical basis of p; a
    ``LieAlgebra`` is p = g with unit rows, which gives x -> Tr(ad_x).

    b_t is 1 at its pivot p_t and 0 at the other pivots, so the diagonal
    entry of ad_(b_s)|p at b_t is e*_(p_t)([b_s, b_t]): ``_trace_pairs``
    over the pairs (b_t, e*_(p_t)); no table of p is built.
    """
    if isinstance(p, LieAlgebra):
        g, rows, pivots = p, [{i: 1} for i in range(p.dim)], range(p.dim)
    else:
        g, rows, pivots = p.parent, p.rows, p.pivots
    return _trace_pairs(g, rows, ((row, {(m,): 1}) for row, m in zip(rows, pivots)))


def quotient_character(g: LieAlgebra, p: Subalgebra) -> Cochain:
    """Character of the action X.cl(Y) = cl([X, Y]) of p on g/p.

    The trace of that action is Tr_g(ad_X) - Tr_p(ad_X|p): the restriction
    to p of the modular cocycle of g, minus ``trace_adjoint`` of p.  p must
    lie in g.
    """
    _check_parent(g, p)
    return p.restrict_cochain(trace_adjoint(g)) - trace_adjoint(p)


def coadjoint_character(g: LieAlgebra, p: Subalgebra, ann: Sequence[Cochain]) -> Cochain:
    """Character of the coadjoint action (X.gamma)(Y) = -gamma([X, Y]) of p on ann(p).

    p must lie in g, and ``ann`` must be the canonical annihilator basis
    (see ``annihilator``): ann[u] is 1 at the complement coordinate q_u, 0
    at the other complement coordinates and -b_s[q_u] at each pivot p_s,
    so that it vanishes on every row b_s; anything else raises ValueError.
    The check reads each of those values once, from the columns of the rows.
    The ann[u]-coordinate of a covector in ann(p) is then its value at
    e_(q_u), so the trace is X -> -(sum over u of ann[u]([X, e_(q_u)])),
    from ``_trace_pairs``.
    """
    _check_parent(g, p)
    ann = list(ann)
    column = transpose(p.rows, g.dim)
    if len(ann) != len(p.complement) or not all(
        isinstance(gamma, Cochain)
        and gamma.degree == 1
        and gamma.dim == g.dim
        and gamma.terms == {(q,): 1, **{(p.pivots[s],): -x for s, x in column[q].items() if x}}
        for gamma, q in zip(ann, p.complement)
    ):
        raise ValueError("expected the canonical annihilator basis of the subalgebra")
    return -_trace_pairs(g, p.rows, (({q: 1}, gamma.terms) for gamma, q in zip(ann, p.complement)))
