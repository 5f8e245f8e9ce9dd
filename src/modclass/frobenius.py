"""Frobenius and quasi-Frobenius structures, and the linearization constructor.

The inversion between non-degenerate 2-cochains and bivectors follows the
convention mu(r#a, r#b) = r(a, b): in Gram-matrix terms, if G is the matrix
of mu on the subalgebra basis then the bivector coefficient matrix is
-G^(-1), and conversely.  Equivalently r# composed with X -> mu(X, .) is
minus the identity on the subalgebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from .liealg import (
    Cochain,
    LieAlgebra,
    Multivector,
    Subalgebra,
    ce_differential,
    quotient_character,
)
from .linalg import (
    Matrix,
    SingularMatrixError,
    Vector,
    invert,
    kernel_basis,
)
from .twisted import TwistedTriangularStructure, modular_class, restricted_sharp


class DegenerateFormError(ValueError):
    """A 2-cochain whose Gram matrix on the subalgebra is singular."""

    def __init__(self, message: str, witness: Vector | None = None):
        self.witness = witness
        super().__init__(message)


class NotFrobeniusError(ValueError):
    """The pairing induced by a 1-cochain is degenerate."""

    def __init__(self, witness: Vector | None = None):
        self.witness = witness
        super().__init__("the form xi([.,.]) is degenerate on the subalgebra")


def _gram(p: Subalgebra, mu: Cochain) -> Matrix:
    if mu.degree != 2 or mu.dim != p.dim:
        raise ValueError("expected a 2-cochain on the subalgebra")
    n = p.dim
    return Matrix(
        [[mu.coefficient(s, t) for t in range(n)] for s in range(n)]
    )


def mu_from_xi(p: Subalgebra, xi: Cochain) -> Cochain:
    """The 2-cochain (X, Y) -> xi([X, Y]) on the subalgebra.

    Computed twice, from the bracket directly and as the differential of
    xi, and required to agree; this is the package's 1-to-2 degree sign
    regression check.
    """
    if xi.degree != 1 or xi.dim != p.dim:
        raise ValueError("expected a 1-cochain on the subalgebra")
    algebra = p.as_lie_algebra()
    xi_vec = xi.to_vector()
    terms = {}
    for s, t in itertools.combinations(range(p.dim), 2):
        value = Fraction(0)
        for k, c in algebra.bracket_basis(s, t).items():
            value += c * xi_vec[k]
        if value != 0:
            terms[(s, t)] = value
    mu = Cochain(p.dim, 2, terms)
    if mu != ce_differential(algebra, xi):
        raise AssertionError(
            "orientation regression: xi([.,.]) differs from the differential of xi"
        )
    return mu


@dataclass(frozen=True)
class FrobeniusCheck:
    ok: bool
    kernel_witness: Vector | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_frobenius(p: Subalgebra, xi: Cochain) -> FrobeniusCheck:
    """Whether xi([.,.]) is non-degenerate; a kernel vector witnesses failure."""
    gram = _gram(p, mu_from_xi(p, xi))
    null = kernel_basis(gram)
    if null:
        return FrobeniusCheck(False, p.from_coords(null[0]))
    return FrobeniusCheck(True)


def invert_cochain(p: Subalgebra, mu: Cochain) -> Multivector:
    """The bivector on the parent algebra inverse to a non-degenerate 2-cochain.

    Returns r in parent coordinates with support in the subalgebra,
    satisfying mu(r#a, r#b) = r(a, b).
    """
    gram = _gram(p, mu)
    if p.dim == 0:
        raise DegenerateFormError("the empty form on a zero subalgebra is degenerate")
    try:
        coeff = invert(gram)
    except SingularMatrixError:
        witness = p.from_coords(kernel_basis(gram)[0])
        raise DegenerateFormError("2-cochain is degenerate on the subalgebra", witness)
    out = Multivector.zero(p.parent.dim, 2)
    basis_mv = [
        Multivector(p.parent.dim, 1, {(i,): c for i, c in enumerate(b) if c != 0})
        for b in p.basis
    ]
    for s, t in itertools.combinations(range(p.dim), 2):
        c = -coeff[s, t]
        if c != 0:
            out = out + c * basis_mv[s].wedge(basis_mv[t])
    return out


def invert_bivector(p: Subalgebra, r: Multivector) -> Cochain:
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
        gram = invert(cmat)
    except SingularMatrixError:
        witness = p.from_coords(kernel_basis(cmat)[0])
        raise DegenerateFormError("bivector is degenerate on the subalgebra", witness)
    terms = {}
    for s, t in itertools.combinations(range(n), 2):
        g = -gram[s, t]
        if g != 0:
            terms[(s, t)] = g
    return Cochain(n, 2, terms)


def linearize(g: LieAlgebra, p: Subalgebra, mu: Cochain) -> TwistedTriangularStructure:
    """Build a twisted triangular structure from a 2-cochain on the algebra.

    r inverts the restriction of mu to the subalgebra and psi is minus the
    differential of mu; the constructor re-verifies the Yang-Baxter
    equation, so a failure there is a bug, not an input error.
    """
    if mu.degree != 2 or mu.dim != g.dim:
        raise ValueError("expected a 2-cochain on the algebra")
    mu_p = p.restrict_cochain(mu)
    r = invert_cochain(p, mu_p)
    psi = -ce_differential(g, mu)
    return TwistedTriangularStructure(g, r, psi)


def linearize_from_parts(
    g: LieAlgebra, p: Subalgebra, mu_p: Cochain, psi: Cochain
) -> TwistedTriangularStructure:
    """Build a structure from subalgebra-level data and a compatible twist.

    psi must be closed with restriction to the subalgebra equal to minus
    the differential of mu_p.
    """
    if not ce_differential(g, psi).is_zero():
        raise ValueError("psi is not closed")
    p_alg = p.as_lie_algebra()
    if p.restrict_cochain(psi) != -ce_differential(p_alg, mu_p):
        raise ValueError("psi does not restrict to minus the differential of mu")
    r = invert_cochain(p, mu_p)
    return TwistedTriangularStructure(g, r, psi)


def frobenius_modular(g: LieAlgebra, p: Subalgebra, xi: Cochain) -> Vector:
    """The unique carrier element X with ad*_X xi = chi(quotient action).

    Solved directly from the linear system, then cross-checked against the
    closed form: X is the image of the quotient character under the
    restricted r# of the inverse bivector.
    """
    mu = mu_from_xi(p, xi)
    gram = _gram(p, mu)
    # column s of the system is ad*_{b_s} xi evaluated on the basis:
    # (ad*_{b_s} xi)(b_t) = -xi([b_s, b_t]) = -mu(b_s, b_t), so the matrix
    # is -G with rows indexed by t.
    system = Matrix([[-gram[s, t] for s in range(p.dim)] for t in range(p.dim)])
    chi = quotient_character(g, p)
    chi_vec = list(chi.to_vector())
    try:
        inv = invert(system)
    except SingularMatrixError:
        witness = p.from_coords(kernel_basis(gram)[0]) if kernel_basis(gram) else None
        raise NotFrobeniusError(witness)
    coords = inv.apply(chi_vec)
    x = p.from_coords(coords)

    r = invert_cochain(p, mu)
    structure = TwistedTriangularStructure(g, r, Cochain.zero(g.dim, 3))
    closed_form = restricted_sharp(structure, p, chi)
    if closed_form != x:
        raise AssertionError(
            "orientation regression: linear solve and restricted-sharp routes disagree"
        )
    report = modular_class(structure)
    if report.representative != x:
        raise AssertionError(
            "orientation regression: modular class of the derived structure disagrees"
        )
    return x
