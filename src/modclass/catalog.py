"""Built-in algebras and twisted triangular structures with known answers.

Each entry records the closed-form data (r-matrices, twists, expected
modular representatives) alongside everything needed to recompute them
from scratch; the test suite requires recorded and recomputed values to
agree, except for the one documented erratum below.

Erratum note: for the gl_n family the recorded triple-sum expression for
the twist (``q_printed_psi``) does not match the coboundary it is supposed
to equal; its compressed index ranges drop and double-cancel terms (at
n = 2 the expression collapses to zero while the coboundary does not).
The recomputed coboundary is authoritative; the closed form is kept only
so the discrepancy can be inspected via ``q_psi_discrepancy``.

Basis conventions: gl(n) uses the elementary matrices in row-major order
e11, e12, ..., enn; sl(n) uses the off-diagonal elementary matrices in
row-major order followed by h1, ..., h(n-1) with hk the difference of the
k-th and (k+1)-st diagonal units.

Structure constants come from the closed form for matrix units,

    [E_ij, E_kl] = d_jk E_il - d_li E_kj,

applied to sparse sums of units; no matrix is formed.  For sl(n) the
diagonal part of a bracket, sum d_i E_ii with trace zero, is rewritten in
the h-basis by partial sums: its hk coefficient is d_1 + ... + d_k.  The
plane-affine algebra is the span of the units E_ij with i <= 2 in gl(3).
The test suite rebuilds every one of these algebras a second way, by
forming the matrix commutators and solving for their coordinates
(``matrix_basis_algebra`` in tests/test_catalog.py), and requires equal
labels and bracket tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .liealg import Cochain, LieAlgebra, Multivector, Subalgebra, ce_differential, span_subalgebra
from .linalg import Vector
from .twisted import ModularClassReport, TwistedTriangularStructure, modular_class


_Unit = tuple[int, int]


def _algebra_from_units(
    labels: Sequence[str],
    basis: Sequence[dict[_Unit, int]],
    coords: Callable[[dict[_Unit, int]], dict[int, int]],
) -> LieAlgebra:
    """Structure constants of a span of matrices written as sums of units.

    ``basis`` gives each element as a sparse sum of matrix units E_ij and
    ``coords`` maps such a sum, known to lie in the span, back to sparse
    basis coordinates.  Commutators use the closed form
    [E_ij, E_kl] = d_jk E_il - d_li E_kj.  The Lie algebra constructor
    checks the Jacobi identity of the result.
    """
    table: dict[tuple[int, int], dict[int, int]] = {}
    for a, b in itertools.combinations(range(len(basis)), 2):
        comm: dict[_Unit, int] = {}
        for (i, j), x in basis[a].items():
            for (k, l), y in basis[b].items():
                if j == k:
                    comm[(i, l)] = comm.get((i, l), 0) + x * y
                if l == i:
                    comm[(k, j)] = comm.get((k, j), 0) - x * y
        entry = coords({u: c for u, c in comm.items() if c})
        if entry:
            table[(a, b)] = dict(sorted(entry.items()))
    return LieAlgebra(labels, table)


def _label(i: int, j: int) -> str:
    return f"e{i}{j}" if max(i, j) <= 9 else f"e{i}_{j}"


def _unit_span(units: Sequence[_Unit]) -> LieAlgebra:
    """The span of the given matrix units, which must be bracket-closed."""
    index = {u: a for a, u in enumerate(units)}
    return _algebra_from_units(
        [_label(i, j) for i, j in units],
        [{u: 1} for u in units],
        lambda comm: {index[u]: c for u, c in comm.items()},
    )


def gl(n: int) -> LieAlgebra:
    """General linear algebra on the elementary-matrix basis, row-major."""
    if n < 1:
        raise ValueError("gl(n) needs n >= 1")
    return _unit_span([(i, j) for i in range(1, n + 1) for j in range(1, n + 1)])


def sl(n: int) -> LieAlgebra:
    """Traceless matrices: off-diagonal units then diagonal differences."""
    if n < 2:
        raise ValueError("sl(n) needs n >= 2")
    units = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    index = {u: a for a, u in enumerate(units)}
    labels = [_label(i, j) for i, j in units] + [f"h{k}" for k in range(1, n)]
    basis = [{u: 1} for u in units] + [{(k, k): 1, (k + 1, k + 1): -1} for k in range(1, n)]

    def coords(comm: dict[_Unit, int]) -> dict[int, int]:
        # a traceless diagonal sum of d_i E_ii is the sum of c_k h_k with
        # c_k = d_1 + ... + d_k
        out = {index[(i, j)]: c for (i, j), c in comm.items() if i != j}
        partial = 0
        for k in range(1, n):
            partial += comm.get((k, k), 0)
            if partial:
                out[len(units) + k - 1] = partial
        return out

    return _algebra_from_units(labels, basis, coords)


def affine_algebra() -> LieAlgebra:
    """The six-dimensional algebra of 2 x 3 blocks inside gl(3).

    Isomorphic to the Lie algebra of affine transformations of the plane.
    """
    return _unit_span([(i, j) for i in range(1, 3) for j in range(1, 4)])


@dataclass(frozen=True)
class CatalogEntry:
    """A named structure with its expected modular-class data."""

    name: str
    n: int | None
    structure: TwistedTriangularStructure
    subalgebra: Subalgebra
    expected_carrier_dim: int
    expected_representative: Vector
    mu: Cochain | None = None  # 2-cochain on the ambient algebra
    xi: Cochain | None = None  # 1-cochain on the ambient algebra
    printed_r: Multivector | None = None
    printed_psi1: Cochain | None = None

    @property
    def g(self) -> LieAlgebra:
        return self.structure.g

    def compute_report(self) -> ModularClassReport:
        return modular_class(self.structure)

    def check_expected(self) -> list[str]:
        """Names of expected values that fail to recompute (empty = all good)."""
        failures = []
        report = self.compute_report()
        if report.carrier.dim != self.expected_carrier_dim:
            failures.append("carrier_dim")
        if report.carrier.rows != self.subalgebra.rows:
            failures.append("carrier_span")
        if report.representative != self.expected_representative:
            failures.append("representative")
        if self.printed_r is not None and self.printed_r != self.structure.r:
            failures.append("printed_r")
        return failures


def affine_example() -> CatalogEntry:
    """The plane-affine algebra with its twisted structure; trivial class."""
    g = affine_algebra()
    u = lambda *labels: tuple(g.index(lab) for lab in labels)
    pairs = [(u("e11", "e22"), 1), (u("e13", "e23"), 1)]
    r = Multivector(g.dim, 2, pairs)
    mu = Cochain(g.dim, 2, pairs)
    psi = Cochain(g.dim, 3, [(u("e11", "e13", "e23"), -1), (u("e22", "e13", "e23"), -1)])
    psi1 = psi + Cochain(g.dim, 3, [(u("e12", "e21", "e22"), -1), (u("e11", "e21", "e12"), 1)])
    span = [{g.index(lab): 1} for lab in ("e11", "e22", "e13", "e23")]
    p = span_subalgebra(g, span)
    structure = TwistedTriangularStructure(g, r, psi)
    return CatalogEntry(
        name="affine",
        n=None,
        structure=structure,
        subalgebra=p,
        expected_carrier_dim=4,
        expected_representative=tuple(Fraction(0) for _ in range(g.dim)),
        mu=mu,
        printed_r=r,
        printed_psi1=psi1,
    )


def q_subalgebra(g: LieAlgebra, n: int) -> Subalgebra:
    """Rows 1..n-1 of gl(n): the codimension-n carrier of the q-family."""
    span = [{g.index(_label(i, j)): 1} for i in range(1, n) for j in range(1, n + 1)]
    return span_subalgebra(g, span)


def _units(g: LieAlgebra) -> Callable[[int, int], int]:
    """The basis index of the unit E_ij."""
    return lambda i, j: g.index(_label(i, j))


def _q_pairs(g: LieAlgebra, n: int) -> list[tuple[int, int]]:
    """Index pairs (a, b) of the q-family form, the sum of the e_a ^ e_b:
    (E_ij, E_ji) for i < j < n, then (E_ii, E_in) for i < n."""
    u = _units(g)
    return [(u(i, j), u(j, i)) for i in range(1, n) for j in range(i + 1, n)] + [
        (u(i, i), u(i, n)) for i in range(1, n)
    ]


def q_mu(g: LieAlgebra, n: int) -> Cochain:
    return Cochain(g.dim, 2, [(pair, 1) for pair in _q_pairs(g, n)])


def q_printed_r(g: LieAlgebra, n: int) -> Multivector:
    return Multivector(g.dim, 2, [(pair, 1) for pair in _q_pairs(g, n)])


def q_printed_psi(g: LieAlgebra, n: int) -> Cochain:
    """Verbatim transcription of the closed-form twist; see the erratum note.

    Each wedge of three basis covectors is one term; the constructor sorts
    its indices with their sign, drops repeated ones and sums the terms.
    """
    u = _units(g)
    terms = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            sign = (i > j) - (i < j)
            if sign == 0:
                continue
            for k in range(1, n + 1):
                terms.append(((u(i, k), u(k, j), u(j, i)), sign))
    for i in range(1, n):
        for k in range(1, n):
            if i != k:
                terms.append(((u(i, k), u(k, i), u(i, n)), 1))
    for i in range(1, n):
        for k in range(1, n):
            terms.append(((u(i, i), u(i, k), u(k, n)), -1))
    return Cochain(g.dim, 3, terms)


def q_psi_discrepancy(n: int) -> Cochain:
    """Transcribed twist minus the recomputed coboundary (nonzero: erratum)."""
    g = gl(n)
    return q_printed_psi(g, n) - (-ce_differential(g, q_mu(g, n)))


def q_example(n: int) -> CatalogEntry:
    """The gl(n) family with carrier q_(n-1); nontrivial modular class."""
    if n < 2:
        raise ValueError("q_example(n) needs n >= 2")
    g = gl(n)
    mu = q_mu(g, n)
    psi = ce_differential(g, -mu)
    r = q_printed_r(g, n)
    p = q_subalgebra(g, n)
    expected = [Fraction(0)] * g.dim
    for i in range(1, n):
        expected[g.index(_label(i, n))] = Fraction(-1)
    structure = TwistedTriangularStructure(g, r, psi)
    return CatalogEntry(
        name="q",
        n=n,
        structure=structure,
        subalgebra=p,
        expected_carrier_dim=(n - 1) * n,
        expected_representative=tuple(expected),
        mu=mu,
        printed_r=r,
    )


def p1_subalgebra(g: LieAlgebra, n: int) -> Subalgebra:
    """The maximal parabolic of sl(n) with vanishing first column below the top."""
    span = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and not (j == 1 and i >= 2):
                span.append({g.index(_label(i, j)): 1})
    for k in range(1, n):
        span.append({g.index(f"h{k}"): 1})
    return span_subalgebra(g, span)


def gg_r_matrix(g: LieAlgebra, n: int) -> Multivector:
    """The generalized Jordanian r-matrix on sl(n)."""
    u = _units(g)
    terms = []
    for k in range(1, n):
        # the diagonal weight: the traceless diagonal with entries (n-k)/n
        # on the first k slots and -k/n after, in the h-basis by partial
        # sums, wedged with E_k,k+1
        for i in range(1, n):
            coeff = Fraction(i * (n - k), n) if i <= k else Fraction(k * (n - i), n)
            terms.append(((g.index(f"h{i}"), u(k, k + 1)), coeff))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for m in range(1, j - i):
                terms.append(((u(i, j - m + 1), u(j, i + m)), 1))
    return Multivector(g.dim, 2, terms)


def gg_example(n: int) -> CatalogEntry:
    """The sl(n) generalized Jordanian structure, from a Frobenius carrier."""
    if n < 2:
        raise ValueError("gg_example(n) needs n >= 2")
    g = sl(n)
    r = gg_r_matrix(g, n)
    p = p1_subalgebra(g, n)
    u = _units(g)
    xi_g = Cochain(g.dim, 1, [((u(i, i + 1),), 1) for i in range(1, n)])
    expected = [Fraction(0)] * g.dim
    for k in range(1, n):
        expected[g.index(_label(k, k + 1))] = Fraction(-(n - k))
    structure = TwistedTriangularStructure(g, r, Cochain.zero(g.dim, 3))
    return CatalogEntry(
        name="gg",
        n=n,
        structure=structure,
        subalgebra=p,
        expected_carrier_dim=n * n - n,
        expected_representative=tuple(expected),
        xi=xi_g,
        printed_r=r,
    )


_BUILDERS: dict[str, Callable[..., CatalogEntry]] = {
    "affine": lambda n=None: affine_example(),
    "q": lambda n: q_example(n),
    "gg": lambda n: gg_example(n),
}


def entry_names() -> list[str]:
    return sorted(_BUILDERS)


def get_entry(name: str, n: int | None = None) -> CatalogEntry:
    if name not in _BUILDERS:
        raise KeyError(f"unknown catalog entry {name!r}; choose from {entry_names()}")
    if name == "affine":
        if n is not None:
            raise ValueError("the affine entry does not take a size parameter")
        return _BUILDERS[name]()
    if n is None:
        raise ValueError(f"catalog entry {name!r} requires --n")
    return _BUILDERS[name](n)
