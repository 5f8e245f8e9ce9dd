"""Cross-checks against sympy's exact matrices, an oracle this package did not write.

sympy is a test-only dependency; ``DomainMatrix`` over ``QQ`` supplies the
reference rref, null space, inverse, solve and rank.  Its null space uses
the same free-variable scheme as ``kernel_basis``, so bases compare exactly.
"""

import random
from fractions import Fraction

import pytest

from modclass import linalg
from modclass.catalog import gg_example, q_example
from modclass.frobenius import (
    DegenerateFormError,
    NotFrobeniusError,
    _gram,
    frobenius_modular,
    invert_cochain,
    mu_from_xi,
)
from modclass.liealg import Cochain, annihilator, quotient_character, whole_algebra
from modclass.linalg import (
    Matrix,
    NoSolutionError,
    SingularMatrixError,
    invert,
    kernel_basis,
    rref,
    solve,
)
from modclass.twisted import carrier_and_kernel
from oracles import ad_matrix, entries, r_sharp_matrix

pytest.importorskip("sympy")
from sympy import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError  # noqa: E402


def dm(m: Matrix) -> DomainMatrix:
    if not m.rows:
        return DomainMatrix.zeros((0, m.cols), QQ).to_dense()
    return DomainMatrix.from_list([list(r) for r in entries(m)], QQ).to_dense()


def fractions(m: DomainMatrix) -> list[list[Fraction]]:
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in m.to_list()]


def random_matrix(rng, rows, cols, rank):
    """A rows x cols rational matrix of the given rank: a product of random factors."""
    left = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rank)] for _ in range(rows)]
    right = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rank)]
    return Matrix(
        [
            [sum((row[k] * right[k][j] for k in range(rank)), Fraction(0)) for j in range(cols)]
            for row in left
        ]
    )


def random_sparse_matrix(rng, rows, cols):
    """A sparse rational matrix; some rows are zero or combinations of others."""
    out = []
    for _ in range(rows):
        kind = rng.random()
        if out and kind < 0.2:
            a, b = rng.choice(out), rng.choice(out)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            out.append({k: a.get(k, 0) + c * b.get(k, 0) for k in set(a) | set(b)})
        elif kind < 0.3:
            out.append({})
        else:
            support = rng.sample(range(cols), rng.randint(1, max(1, cols // 2)))
            numerators = [rng.choice([-5, -2, -1, 1, 3, 7]) for _ in support]
            out.append({k: Fraction(a, rng.randint(1, 4)) for k, a in zip(support, numerators)})
    return Matrix(out, cols)


SPECIAL = [
    Matrix([]),
    Matrix([], 3),
    Matrix([[], [], []]),
    Matrix([[0, 0, 0, 0]] * 3),
    Matrix([[0, 1, 2], [0, 0, 0], [0, 2, 4], [0, 0, 0]]),
]


def seeded_matrices(seed, count=40, square=False):
    """The special shapes, then dense matrices of chosen rank and sparse ones,
    wide and tall."""
    yield from (m for m in SPECIAL if not square or m.rows == m.cols)
    rng = random.Random(seed)
    for k in range(count):
        rows = rng.randint(1, 8)
        cols = rows if square else rng.randint(1, 9)
        if k % 2:
            yield random_sparse_matrix(rng, rows, cols)
        else:
            # full rank half the time, else any rank
            rank = min(rows, cols) if rng.random() < 0.5 else rng.randint(0, min(rows, cols))
            yield random_matrix(rng, rows, cols, rank)


class TestLinalgAgainstSympy:
    def test_rref_and_rank(self):
        for m in seeded_matrices(1):
            reduced, pivots, rank = rref(m)
            ref, ref_pivots = dm(m).rref()
            assert [list(r) for r in entries(reduced)] == fractions(ref)
            assert (reduced.rows, reduced.cols) == (m.rows, m.cols)
            assert pivots == tuple(ref_pivots)
            assert rank == dm(m).rank()

    def test_kernel_basis_spans_the_null_space(self):
        for m in seeded_matrices(2):
            basis = kernel_basis(m)
            assert len(basis) == m.cols - dm(m).rank()
            assert [list(v) for v in basis] == fractions(dm(m).nullspace())

    def test_invert(self):
        for m in seeded_matrices(3, square=True):
            ref = dm(m)
            try:
                expected = fractions(ref.inv())
            except DMNonInvertibleMatrixError:
                with pytest.raises(SingularMatrixError) as info:
                    invert(m)
                assert info.value.kernel == kernel_basis(m)
                continue
            assert [list(r) for r in entries(invert(m))] == expected

    def test_solve(self):
        rng = random.Random(4)
        for m in seeded_matrices(4):
            b = [Fraction(rng.randint(-5, 5)) for _ in range(m.rows)]
            ref = dm(m)
            augmented = Matrix([list(r) + [c] for r, c in zip(entries(m), b)], m.cols + 1)
            consistent = ref.rank() == dm(augmented).rank()
            if not consistent:
                with pytest.raises(NoSolutionError) as info:
                    solve(m, b)
                assert info.value.kernel == kernel_basis(m)
                continue
            x, kernel = solve(m, b)
            if m.cols:
                assert fractions(ref.matmul(dm(Matrix([[c] for c in x])))) == [[c] for c in b]
            assert kernel == kernel_basis(m)
            assert solve(m, b).unique == (ref.rank() == m.cols)
            # free variables are set to zero
            pivots = set(rref(m).pivots)
            assert all(c == 0 for j, c in enumerate(x) if j not in pivots)


def catalog_structures(affine_entry, q_entries, gg_entries):
    return [affine_entry] + [q_entries[n] for n in range(2, 7)] + [
        gg_entries[n] for n in range(2, 7)
    ]


def test_carrier_dim_is_rank_of_sharp(affine_entry, q_entries, gg_entries):
    for entry in catalog_structures(affine_entry, q_entries, gg_entries):
        st = entry.structure
        rank = dm(r_sharp_matrix(st.g, st.r)).rank()
        carrier, kernel = carrier_and_kernel(st)
        assert carrier.dim == rank
        assert len(kernel) == st.g.dim - rank


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("family", ["q", "gg"])
def test_carrier_from_sharp_columns(family, n, q_entries, gg_entries):
    """The carrier, reduced from the sparse r# columns, is the rref of the
    dense r# matrix, and its annihilator is the null space of its basis."""
    entries_by_n = q_entries if family == "q" else gg_entries
    entry = entries_by_n.get(n) or (q_example if family == "q" else gg_example)(n)
    st, g = entry.structure, entry.g
    columns = Matrix(st.sharp_columns(), g.dim)
    reduced, pivots, rank = rref(columns)
    ref, ref_pivots = dm(columns).rref()
    assert [list(r) for r in entries(reduced)] == fractions(ref)
    assert pivots == tuple(ref_pivots)

    carrier, kernel = carrier_and_kernel(st)
    sharp = r_sharp_matrix(g, st.r)
    dense_route = rref(sharp)
    assert carrier.basis == entries(dense_route.reduced)[: dense_route.rank]
    assert carrier.pivots == dense_route.pivots
    assert [list(b) for b in carrier.basis] == fractions(dm(sharp).rref()[0])[:rank]

    null = [Cochain.from_covector(v) for v in kernel_basis(Matrix(carrier.basis))]
    assert annihilator(g, carrier) == kernel == null


class TestOneEliminationPerDegenerateGram:
    """A degenerate Gram matrix is eliminated once: the witness comes from
    the elimination that tried to invert or solve."""

    @pytest.fixture
    def eliminations(self, monkeypatch):
        calls = []
        original = linalg._eliminate

        def counted(rows, ncols):
            calls.append(ncols)
            return original(rows, ncols)

        monkeypatch.setattr(linalg, "_eliminate", counted)
        return calls

    def test_invert_cochain(self, eliminations, q_entries):
        p = q_entries[3].subalgebra
        # a form that pairs only the first two basis vectors
        mu = Cochain(p.dim, 2, {(0, 1): 1, (2, 3): 1})
        with pytest.raises(DegenerateFormError) as info:
            invert_cochain(p, mu)
        assert eliminations == [p.dim]
        gram = dm(_gram(p, mu))
        witness = fractions(gram.nullspace())[0]
        assert info.value.witness == p.from_coords(witness)

    @pytest.mark.parametrize("case", ["inconsistent", "not_unique"])
    def test_frobenius_modular(self, eliminations, case, q_entries, gl_algebras):
        # xi = 0 pairs nothing, so its Gram matrix is zero: G x = chi has no
        # solution on the q(3) carrier, where chi is nonzero, and many on
        # the whole of gl(2), where chi = 0
        if case == "inconsistent":
            g, p = q_entries[3].g, q_entries[3].subalgebra
        else:
            g = gl_algebras[2]
            p = whole_algebra(g)
        xi = Cochain.zero(p.dim, 1)
        eliminations.clear()
        with pytest.raises(NotFrobeniusError) as info:
            frobenius_modular(g, p, xi)
        assert eliminations == [p.dim]
        gram = dm(_gram(p, mu_from_xi(p, xi)))
        assert info.value.witness == p.from_coords(fractions(gram.nullspace())[0])


def test_quotient_character_against_pseudo_inverse(affine_entry, q_entries, gg_entries):
    # chi(b) = tr(ad_b) - tr(B+ ad_b B), with B the carrier basis as columns
    # and B+ = (B^T B)^-1 B^T its left inverse
    cases = [affine_entry] + [q_entries[n] for n in (2, 3, 4)] + [
        gg_entries[n] for n in (2, 3, 4)
    ]
    for entry in cases:
        g, p = entry.g, entry.subalgebra
        basis = dm(Matrix(p.basis)).transpose()
        left_inverse = basis.transpose().matmul(basis).inv().matmul(basis.transpose())
        expected = []
        for b in p.basis:
            ad = dm(ad_matrix(g, b))
            restricted = left_inverse.matmul(ad).matmul(basis)
            trace = sum((r[i] for i, r in enumerate(fractions(ad))), Fraction(0))
            trace -= sum((r[i] for i, r in enumerate(fractions(restricted))), Fraction(0))
            expected.append(trace)
        assert quotient_character(g, p).to_vector() == tuple(expected)
