"""Dense and Fraction routes that the library no longer takes, kept as oracles.

Each function is the earlier library implementation of something the
library now computes sparsely or on integers.  Tests compare the two; none
of these runs outside the test suite.

* ``dense_bracket`` and ``ad_matrix``: the bracket of two dense vectors and
  the matrix of ad_x, read entry by entry off the table
  (``bracket_basis``), against the sparse ``LieAlgebra.bracket``;
* ``matmul``, ``mat_add``, ``mat_sub``, ``mat_neg``, ``zeros`` and
  ``identity``: ``Matrix`` arithmetic, for the matrix-basis and
  representation oracles;
* ``dense_sharp_apply`` and ``dual_bracket``: r# of a covector and the
  dual bracket of two 1-cochains, read entry by entry off the table,
  against ``twisted._dual_brackets`` (the dual table and the pairing with
  a covector);
* ``sharp_homomorphism_residuals``: r# applied to every dual table entry
  against the bracket of two r# columns, a verdict that ``verify`` and
  ``modular_class`` read off the zero Yang-Baxter residual;
* ``cocycle_by_table``: a covector paired with every dual table entry,
  against the ``cocycle_on_dual`` verdict of ``modular_class``;
* ``is_frobenius``: degeneracy of xi([., .]) by its own elimination, against
  ``frobenius_modular``;
* ``ce_differential_fraction``, ``cybe_lhs_trivector_fraction`` and
  ``psi_pullback_trivector_fraction``: the Fraction loops through
  ``_sort_with_sign``, against the integer ones;
* ``alternating_terms``: the constructor loop of ``Multivector`` and
  ``Cochain`` that made a Fraction sum for every term, against the one
  that stores a new slot directly;
* ``closure_table`` and ``subalgebra_algebra``: the structure constants of
  a subalgebra, bracketing every pair of dense basis vectors, and the
  subalgebra as a Lie algebra on that table, which the library never
  builds (``check_closed``, ``mu_from_xi`` and the traces read the table
  of the parent);
* ``trace_by_table``: Tr(ad|p) read off the diagonal of the table of p
  (``subalgebra_algebra``), against ``trace_adjoint``, which traces along
  the rows of p;
* ``restrict_by_evaluation``, ``pullback_by_evaluation`` and
  ``gram_by_coefficient``: the restriction of a cochain and the pullback of
  a form along any rows by the determinant rule on every tuple of basis
  vectors or rows, and the Gram matrix by one ``coefficient`` call per
  entry, against the pullback of terms;
* ``entries``, ``column`` and ``from_columns``: the dense rows and columns
  of a ``Matrix``, which stores sparse rows, and a matrix from dense
  columns;
* ``dot``, ``mat_apply``, ``mat_trace``, ``mat_is_zero`` and
  ``r_sharp_matrix``: dense inner and matrix-vector products, traces and
  the dense matrix of r#, which no library computation needs (the library
  row-reduces the sparse r# columns);
* ``invert_bivector`` and ``linearize_from_parts``: the inverse of
  ``invert_cochain`` and a linearization from subalgebra-level data, used
  as round-trip checks.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from modclass import twisted
from modclass.frobenius import DegenerateFormError, _gram, invert_cochain, mu_from_xi
from modclass.liealg import Cochain, LieAlgebra, Multivector, _sort_with_sign, ce_differential
from modclass.linalg import Matrix, SingularMatrixError, Vector, dense, invert, kernel_basis, rat
from modclass.twisted import TwistedTriangularStructure, _sharp_columns


def entries(m: Matrix) -> tuple[Vector, ...]:
    """The dense rows of a matrix."""
    return tuple(dense(r, m.cols) for r in m.sparse_rows)


def column(m: Matrix, j: int) -> Vector:
    return tuple(r.get(j, Fraction(0)) for r in m.sparse_rows)


def from_columns(columns) -> Matrix:
    """The matrix with the given dense columns."""
    if not columns:
        return Matrix([])
    return Matrix([[col[i] for col in columns] for i in range(len(columns[0]))])


def dot(x, y) -> Fraction:
    """Exact inner product over the pairs of entries that are both nonzero."""
    total = Fraction(0)
    for a, b in zip(x, y, strict=True):
        if a and b:
            total += a * b
    return total


def mat_apply(m: Matrix, x) -> Vector:
    """Matrix-vector product."""
    if len(x) != m.cols:
        raise ValueError(f"dimension mismatch: {m.rows}x{m.cols} vs {len(x)}")
    return tuple(dot(r, x) for r in entries(m))


def mat_trace(m: Matrix) -> Fraction:
    if m.rows != m.cols:
        raise ValueError("trace of a non-square matrix")
    return sum((m.sparse_rows[i].get(i, Fraction(0)) for i in range(m.rows)), Fraction(0))


def mat_is_zero(m: Matrix) -> bool:
    return not any(m.sparse_rows)


def dense_bracket(g: LieAlgebra, x, y) -> Vector:
    """[x, y] of two dense vectors, one ``bracket_basis`` per pair of their
    nonzero entries."""
    if len(x) != g.dim or len(y) != g.dim:
        raise ValueError("vector dimension mismatch")
    out = [Fraction(0)] * g.dim
    for i, xc in enumerate(x):
        if xc == 0:
            continue
        for j, yc in enumerate(y):
            if yc == 0:
                continue
            for k, c in g.bracket_basis(i, j).items():
                out[k] += xc * yc * c
    return tuple(out)


def ad_matrix(g: LieAlgebra, x) -> Matrix:
    """Matrix of ad_x = [x, .] in the basis."""
    return from_columns([dense_bracket(g, x, g.basis_vector(j)) for j in range(g.dim)])


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ValueError("dimension mismatch in matrix product")
    cols = [column(b, j) for j in range(b.cols)]
    return Matrix([[dot(r, c) for c in cols] for r in entries(a)])


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    return Matrix([[x + y for x, y in zip(r, s)] for r, s in zip(entries(a), entries(b))])


def mat_neg(a: Matrix) -> Matrix:
    return Matrix([[-x for x in r] for r in entries(a)])


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return mat_add(a, mat_neg(b))


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix([[0] * cols for _ in range(rows)])


def identity(n: int) -> Matrix:
    return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def dense_sharp_apply(structure, alpha) -> Vector:
    """r# of a 1-cochain or a dense covector, densely."""
    cov = alpha.to_vector() if isinstance(alpha, Cochain) else tuple(alpha)
    out = [Fraction(0)] * structure.g.dim
    for a, ca in enumerate(cov):
        if ca == 0:
            continue
        for k, v in structure.sharp_columns()[a].items():
            out[k] += ca * v
    return tuple(out)


def dual_bracket(structure, alpha: Cochain, beta: Cochain) -> Cochain:
    """Bracket on the dual: ad*_{r#a} b - ad*_{r#b} a + psi(r#a, r#b, .)."""
    g = structure.g
    if alpha.degree != 1 or beta.degree != 1 or alpha.dim != g.dim or beta.dim != g.dim:
        raise ValueError("dual_bracket expects 1-cochains on the algebra")
    x = dense_sharp_apply(structure, alpha)
    y = dense_sharp_apply(structure, beta)
    a = {k: c for (k,), c in alpha.terms.items()}
    b = {k: c for (k,), c in beta.terms.items()}
    out = [Fraction(0)] * g.dim
    # <ad*_X b, e_j> = -<b, [X, e_j]>, one ``bracket_basis`` per pair (i, j)
    for i in range(g.dim):
        if x[i] == 0 and y[i] == 0:
            continue
        for j in range(g.dim):
            entry = g.bracket_basis(i, j)
            vb = sum(c * b[k] for k, c in entry.items() if k in b)
            va = sum(c * a[k] for k, c in entry.items() if k in a)
            if vb or va:
                out[j] += y[i] * va - x[i] * vb
    for (p, q, s), c in structure.psi.terms.items():
        xp, xq, xs = x[p], x[q], x[s]
        yp, yq, ys = y[p], y[q], y[s]
        if not ((xp or xq or xs) and (yp or yq or ys)):
            continue
        out[s] += c * (xp * yq - xq * yp)
        out[q] -= c * (xp * ys - xs * yp)
        out[p] += c * (xq * ys - xs * yq)
    return Cochain.from_covector(out)


def sharp_homomorphism_residuals(structure: TwistedTriangularStructure) -> Multivector | None:
    """Check that r# maps dual brackets to brackets of sharp images.

    Returns None when r#([a, b]*) = [r#a, r#b] for all dual basis pairs,
    otherwise the first offending basis wedge as a witness.  Each dual
    table entry is pushed through the sparse r# columns and compared with
    the sparse bracket of two columns; neither side stores a zero.
    """
    g = structure.g
    # read through the module, so that a test can substitute the table
    table = twisted._dual_table(structure)
    cols = structure.sharp_columns()
    for a, b in itertools.combinations(range(g.dim), 2):
        if structure.sharp_apply(table.get((a, b), {})) != g.bracket(cols[a], cols[b]):
            return Multivector(g.dim, 2, {(a, b): Fraction(1)})
    return None


def cocycle_by_table(structure: TwistedTriangularStructure, theta: Mapping[int, Fraction]) -> bool:
    """Whether theta pairs to zero with every entry of the dual table, the
    ``cocycle_on_dual`` verdict that ``modular_class`` reads off
    ``_dual_brackets`` at theta alone."""
    return all(
        sum((c * theta[k] for k, c in entry.items() if k in theta), Fraction(0)) == 0
        for entry in twisted._dual_table(structure).values()
    )


@dataclass(frozen=True)
class FrobeniusCheck:
    ok: bool
    kernel_witness: Vector | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_frobenius(p, xi: Cochain) -> FrobeniusCheck:
    """Whether xi([.,.]) is non-degenerate; a kernel vector witnesses failure.

    The empty form on the zero subalgebra counts as degenerate; it has no
    witness.
    """
    if p.dim == 0:
        return FrobeniusCheck(False)
    null = kernel_basis(_gram(p, mu_from_xi(p, xi)))
    if null:
        return FrobeniusCheck(False, p.from_coords(null[0]))
    return FrobeniusCheck(True)


def ce_differential_fraction(g: LieAlgebra, c: Cochain) -> Cochain:
    """The Chevalley-Eilenberg differential, summed in Fractions."""
    if c.degree == 0:
        return Cochain.zero(g.dim, 1)
    d1: dict[int, list[tuple[int, int, Fraction]]] = {m: [] for m in range(g.dim)}
    for (i, j), entry in g.table.items():
        for m, coeff in entry.items():
            d1[m].append((i, j, coeff))
    acc: dict[tuple[int, ...], Fraction] = {}
    for idx, coeff in c.terms.items():
        for t, m in enumerate(idx):
            rest = idx[:t] + idx[t + 1 :]
            slot_sign = -1 if t % 2 else 1
            for i, j, w in d1[m]:
                sidx, sign = _sort_with_sign((i, j) + rest)
                if sign == 0:
                    continue
                new = acc.get(sidx, Fraction(0)) + slot_sign * sign * w * coeff
                if new == 0:
                    acc.pop(sidx, None)
                else:
                    acc[sidx] = new
    return Cochain(g.dim, c.degree + 1, acc)


def cybe_lhs_trivector_fraction(g: LieAlgebra, r: Multivector) -> Multivector:
    """The Yang-Baxter trivector over all ordered pairs of terms, in Fractions."""
    acc: dict[tuple[int, ...], Fraction] = {}
    half = Fraction(1, 2)
    terms = list(r.terms.items())

    def put(bracket, a, b, scale):
        for m, cm in bracket.items():
            sidx, sign = _sort_with_sign((m, a, b))
            if sign == 0:
                continue
            new = acc.get(sidx, Fraction(0)) + sign * scale * cm
            if new == 0:
                acc.pop(sidx, None)
            else:
                acc[sidx] = new

    for (xu, yu), cu in terms:
        for (xv, yv), cv in terms:
            s = half * cu * cv
            put(g.bracket_basis(xu, xv), yu, yv, s)
            put(g.bracket_basis(yu, yv), xu, xv, s)
            put(g.bracket_basis(xu, yv), yu, xv, -s)
            put(g.bracket_basis(yu, xv), xu, yv, -s)
    return Multivector(g.dim, 3, acc)


def psi_pullback_trivector_fraction(g: LieAlgebra, r: Multivector, psi: Cochain) -> Multivector:
    """The trivector (a, b, c) -> psi(r#a, r#b, r#c), one Fraction product per term."""
    rows = [{a: -v for a, v in col.items()} for col in _sharp_columns(r)]
    acc: dict[tuple[int, ...], Fraction] = {}
    for (i, j, k), c in psi.terms.items():
        for a, xa in rows[i].items():
            for b, yb in rows[j].items():
                if a == b:
                    continue
                cxy = c * xa * yb
                for d, zd in rows[k].items():
                    idx, sign = _sort_with_sign((a, b, d))
                    if sign:
                        acc[idx] = acc.get(idx, 0) + sign * cxy * zd
    return Multivector(g.dim, 3, acc)


def alternating_terms(dim: int, degree: int, terms=()) -> dict[tuple[int, ...], Fraction]:
    """The terms the ``Multivector``/``Cochain`` constructor keeps: every
    term coerced, range-checked, sorted with its sign and added in Fractions."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    items = terms.items() if isinstance(terms, Mapping) else terms
    clean: dict[tuple[int, ...], Fraction] = {}
    for idx, coeff in items:
        coeff = rat(coeff)
        if coeff == 0:
            continue
        idx = tuple(idx)
        if len(idx) != degree:
            raise ValueError(f"index tuple {idx} has wrong length for degree {degree}")
        if any(not 0 <= a < dim for a in idx):
            raise ValueError(f"index out of range in {idx}")
        sidx, sign = _sort_with_sign(idx)
        if sign == 0:
            continue
        new = clean.get(sidx, Fraction(0)) + sign * coeff
        if new == 0:
            clean.pop(sidx, None)
        else:
            clean[sidx] = new
    return clean


def closure_table(p) -> dict[tuple[int, int], dict[int, Fraction]]:
    """Structure constants of a subalgebra, one dense bracket per basis pair.

    The coordinates of a vector of p are its entries at the pivots.
    """
    table = {}
    for s, t in itertools.combinations(range(p.dim), 2):
        w = dense_bracket(p.parent, p.basis[s], p.basis[t])
        entry = {k: w[pivot] for k, pivot in enumerate(p.pivots) if w[pivot] != 0}
        if entry:
            table[(s, t)] = entry
    return table


def subalgebra_algebra(p) -> LieAlgebra:
    """The subalgebra p as a Lie algebra in its own basis, on the table of
    ``closure_table``; closure is taken on trust."""
    return LieAlgebra(p.labels(), closure_table(p), check=False)


def trace_by_table(p) -> Cochain:
    """x -> Tr(ad_x) on the table of p, a ``Subalgebra`` (through
    ``subalgebra_algebra``) or a ``LieAlgebra``: the diagonal entry of
    ad_(e_s) at e_t is the e_t-coefficient of [e_s, e_t]."""
    algebra = p if isinstance(p, LieAlgebra) else subalgebra_algebra(p)
    n = algebra.dim
    return Cochain(n, 1, {
        (s,): sum((algebra.bracket_basis(s, t).get(t, 0) for t in range(n)), Fraction(0))
        for s in range(n)
    })


def restrict_by_evaluation(p, c: Cochain) -> Cochain:
    """c restricted to p: the determinant rule on every tuple of basis vectors."""
    terms = {}
    for idx in itertools.combinations(range(p.dim), c.degree):
        value = c.evaluate(*(p.basis[s] for s in idx))
        if value != 0:
            terms[idx] = value
    return Cochain(p.dim, c.degree, terms)


def pullback_by_evaluation(c, rows) -> Cochain | Multivector:
    """c along e_s -> rows[s]: the determinant rule on every tuple of rows."""
    vectors = [dense(row, c.dim) for row in rows]
    terms = {
        idx: c.evaluate(*(vectors[s] for s in idx))
        for idx in itertools.combinations(range(len(rows)), c.degree)
    }
    return type(c)(len(rows), c.degree, terms)


def gram_by_coefficient(mu: Cochain) -> Matrix:
    """The skew Gram matrix of a 2-cochain, one ``coefficient`` call per entry."""
    return Matrix([[mu.coefficient(s, t) for t in range(mu.dim)] for s in range(mu.dim)])


def r_sharp_matrix(g: LieAlgebra, r: Multivector) -> Matrix:
    """Matrix of the contraction map dual -> algebra, alpha -> i_alpha r.

    Column a holds the coordinates of the image of the a-th dual basis
    covector; the matrix is skew in the sense <a, r#b> = -<b, r#a>.
    """
    if r.degree != 2 or r.dim != g.dim:
        raise ValueError("r must be a bivector on the algebra")
    cols = [[Fraction(0)] * g.dim for _ in range(g.dim)]
    for (i, j), c in r.terms.items():
        cols[i][j] = c
        cols[j][i] = -c
    return from_columns(cols)


def invert_bivector(p, r: Multivector) -> Cochain:
    """The 2-cochain on the subalgebra inverse to a non-degenerate bivector."""
    if r.degree != 2 or r.dim != p.parent.dim:
        raise ValueError("expected a bivector on the parent algebra")
    n = p.dim
    coeff = [[Fraction(0)] * n for _ in range(n)]
    # bivector coefficients in subalgebra coordinates: r evaluated on the
    # dual basis of the subalgebra, extended by zero (the value does not
    # depend on the extension when r is supported in the subalgebra)
    duals = [p.extend_cochain_by_zero(Cochain.basis(n, s)).to_vector() for s in range(n)]
    for s in range(n):
        for t in range(s + 1, n):
            alpha, beta = duals[s], duals[t]
            val = Fraction(0)
            for (i, j), c in r.terms.items():
                val += c * (alpha[i] * beta[j] - alpha[j] * beta[i])
            coeff[s][t] = val
            coeff[t][s] = -val
    cmat = Matrix(coeff)
    try:
        gram = entries(invert(cmat))
    except SingularMatrixError:
        witness = p.from_coords(kernel_basis(cmat)[0])
        raise DegenerateFormError("bivector is degenerate on the subalgebra", witness)
    terms = {}
    for s, t in itertools.combinations(range(n), 2):
        g = -gram[s][t]
        if g != 0:
            terms[(s, t)] = g
    return Cochain(n, 2, terms)


def linearize_from_parts(
    g: LieAlgebra, p, mu_p: Cochain, psi: Cochain
) -> TwistedTriangularStructure:
    """Build a structure from subalgebra-level data and a compatible twist.

    psi must be closed with restriction to the subalgebra equal to minus
    the differential of mu_p.
    """
    if not ce_differential(g, psi).is_zero():
        raise ValueError("psi is not closed")
    if p.restrict_cochain(psi) != -ce_differential(subalgebra_algebra(p), mu_p):
        raise ValueError("psi does not restrict to minus the differential of mu")
    return TwistedTriangularStructure(g, invert_cochain(p, mu_p), psi)
