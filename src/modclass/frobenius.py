"""Frobenius and quasi-Frobenius structures, and the linearization constructor.

The inversion between non-degenerate 2-cochains and bivectors follows the
convention mu(r#a, r#b) = r(a, b): in Gram-matrix terms, if G is the matrix
of mu on the subalgebra basis then the bivector coefficient matrix is
-G^(-1), and conversely.  Equivalently r# composed with X -> mu(X, .) is
minus the identity on the subalgebra.
"""

from __future__ import annotations

from fractions import Fraction
from .liealg import (
    Cochain,
    LieAlgebra,
    Multivector,
    Subalgebra,
    _check_parent,
    ce_differential,
    pullback,
    quotient_character,
)
from .linalg import Matrix, NoSolutionError, SingularMatrixError, Vector, invert, solve
from .twisted import TwistedTriangularStructure

_EMPTY_FORM = "the empty form on a zero subalgebra is degenerate"


class DegenerateFormError(ValueError):
    """A 2-cochain whose Gram matrix on the subalgebra is singular."""

    def __init__(self, message: str, witness: Vector | None = None):
        self.witness = witness
        super().__init__(message)


class NotFrobeniusError(ValueError):
    """The pairing induced by a 1-cochain is degenerate.

    The witness is a nonzero kernel vector of the pairing; the zero
    subalgebra has none.
    """

    def __init__(self, witness: Vector | None = None):
        self.witness = witness
        super().__init__(
            "the pairing xi([.,.]) is degenerate" if witness is not None else _EMPTY_FORM
        )


def _gram(p: Subalgebra, mu: Cochain) -> Matrix:
    if mu.degree != 2 or mu.dim != p.dim:
        raise ValueError("expected a 2-cochain on the subalgebra")
    rows: list[dict[int, Fraction]] = [{} for _ in range(p.dim)]
    for (s, t), c in mu.terms.items():
        rows[s][t] = c
        rows[t][s] = -c
    return Matrix(rows, p.dim)


def mu_from_xi(p: Subalgebra, xi: Cochain) -> Cochain:
    """The 2-cochain (X, Y) -> xi([X, Y]) on the subalgebra: the pullback
    along the rows of d of the extension of xi by zero, which agrees with xi
    on p, where [b_s, b_t] lies; no table of p is built.  The test suite
    checks it against the differential on that table.
    """
    xi_g = p.extend_cochain_by_zero(xi)
    return pullback(ce_differential(p.parent, xi_g), p.rows)


def invert_cochain(p: Subalgebra, mu: Cochain) -> Multivector:
    """The bivector on the parent algebra inverse to a non-degenerate 2-cochain.

    Returns r in parent coordinates with support in the subalgebra,
    satisfying mu(r#a, r#b) = r(a, b).  A degenerate form raises
    DegenerateFormError with the first kernel vector of its Gram matrix,
    read from the elimination that tried to invert it.
    """
    gram = _gram(p, mu)
    if p.dim == 0:
        raise DegenerateFormError(_EMPTY_FORM)
    try:
        coeff = invert(gram)
    except SingularMatrixError as exc:
        witness = p.from_coords(exc.kernel[0])
        raise DegenerateFormError("2-cochain is degenerate on the subalgebra", witness)
    # r = sum over s < t of -coeff[s, t] b_s ^ b_t, pushed forward along
    # the inclusion: b_s ^ b_t has the term b_s[i] b_t[j] at e_i ^ e_j
    acc: dict[tuple[int, int], Fraction] = {}
    for s, row in enumerate(coeff.sparse_rows):
        for t, x in row.items():
            if s < t:
                for i, a in p.rows[s].items():
                    for j, b in p.rows[t].items():
                        if i != j:
                            key, v = ((i, j), -x * a * b) if i < j else ((j, i), x * a * b)
                            acc[key] = acc.get(key, 0) + v
    return Multivector(p.parent.dim, 2, acc)


def linearize(g: LieAlgebra, p: Subalgebra, mu: Cochain) -> TwistedTriangularStructure:
    """Build a twisted triangular structure from a 2-cochain on the algebra.

    p must lie in g.  r inverts the restriction of mu to p and psi is minus
    the differential of mu; the constructor re-verifies the Yang-Baxter
    equation, so a failure there is a bug, not an input error.
    """
    if mu.degree != 2 or mu.dim != g.dim:
        raise ValueError("expected a 2-cochain on the algebra")
    _check_parent(g, p)
    mu_p = p.restrict_cochain(mu)
    r = invert_cochain(p, mu_p)
    psi = ce_differential(g, -mu)
    return TwistedTriangularStructure(g, r, psi)


def frobenius_modular(g: LieAlgebra, p: Subalgebra, xi: Cochain) -> Vector:
    """The unique carrier element X with ad*_X xi = chi(quotient action).

    In carrier coordinates, (ad*_{b_s} xi)(b_t) = -xi([b_s, b_t]) =
    mu(b_t, b_s) with mu = xi([.,.]), so the system is G x = chi for the
    Gram matrix G of mu.  A singular G raises NotFrobeniusError with the
    first kernel vector that the elimination of G x = chi reports, and the
    zero subalgebra counts as degenerate.
    """
    if p.dim == 0:
        raise NotFrobeniusError()
    gram = _gram(p, mu_from_xi(p, xi))
    try:
        coords, kernel = solve(gram, quotient_character(g, p).to_vector())
    except NoSolutionError as exc:
        kernel = exc.kernel
    if kernel:
        raise NotFrobeniusError(p.from_coords(kernel[0]))
    return p.from_coords(coords)
