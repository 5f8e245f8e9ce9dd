"""Cross-checks against sympy's exact matrices, an oracle this package did not write.

sympy is a test-only dependency; ``DomainMatrix`` over ``QQ`` supplies the
reference rref, null space, inverse, solve and rank.
"""

import random
from fractions import Fraction

import pytest

from modclass.liealg import quotient_character
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
from oracles import ad_matrix

pytest.importorskip("sympy")
from sympy import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError  # noqa: E402


def dm(rows) -> DomainMatrix:
    return DomainMatrix.from_list([list(r) for r in rows], QQ)


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


def seeded_matrices(seed, count=40, square=False):
    rng = random.Random(seed)
    for _ in range(count):
        rows = rng.randint(1, 6)
        cols = rows if square else rng.randint(1, 7)
        # full rank half the time, else any rank
        rank = min(rows, cols) if rng.random() < 0.5 else rng.randint(0, min(rows, cols))
        yield random_matrix(rng, rows, cols, rank)


class TestLinalgAgainstSympy:
    def test_rref_and_rank(self):
        for m in seeded_matrices(1):
            reduced, pivots, rank = rref(m)
            ref, ref_pivots = dm(m.entries).rref()
            assert [list(r) for r in reduced.entries] == fractions(ref)
            assert pivots == tuple(ref_pivots)
            assert rank == dm(m.entries).rank()

    def test_kernel_basis_spans_the_null_space(self):
        for m in seeded_matrices(2):
            basis = kernel_basis(m)
            null = dm(m.entries).nullspace()
            assert len(basis) == null.shape[0] == m.cols - dm(m.entries).rank()
            if basis:
                # same row space: equal reduced forms
                assert fractions(dm(basis).rref()[0]) == fractions(null.rref()[0])

    def test_invert(self):
        for m in seeded_matrices(3, square=True):
            ref = dm(m.entries)
            try:
                expected = fractions(ref.inv())
            except DMNonInvertibleMatrixError:
                with pytest.raises(SingularMatrixError):
                    invert(m)
                continue
            assert [list(r) for r in invert(m).entries] == expected

    def test_solve(self):
        rng = random.Random(4)
        for m in seeded_matrices(4):
            b = [Fraction(rng.randint(-5, 5)) for _ in range(m.rows)]
            ref = dm(m.entries)
            consistent = ref.rank() == dm([list(r) + [c] for r, c in zip(m.entries, b)]).rank()
            if not consistent:
                with pytest.raises(NoSolutionError):
                    solve(m, b)
                continue
            x, unique = solve(m, b)
            assert fractions(ref.matmul(dm([[c] for c in x]))) == [[c] for c in b]
            assert unique == (ref.rank() == m.cols)


def catalog_structures(affine_entry, q_entries, gg_entries):
    return [affine_entry] + [q_entries[n] for n in range(2, 7)] + [
        gg_entries[n] for n in range(2, 7)
    ]


def test_carrier_dim_is_rank_of_sharp(affine_entry, q_entries, gg_entries):
    for entry in catalog_structures(affine_entry, q_entries, gg_entries):
        st = entry.structure
        rank = dm(st.sharp.entries).rank()
        carrier, kernel = carrier_and_kernel(st)
        assert carrier.dim == rank
        assert len(kernel) == st.g.dim - rank


def test_quotient_character_against_pseudo_inverse(affine_entry, q_entries, gg_entries):
    # chi(b) = tr(ad_b) - tr(B+ ad_b B), with B the carrier basis as columns
    # and B+ = (B^T B)^-1 B^T its left inverse
    entries = [affine_entry] + [q_entries[n] for n in (2, 3, 4)] + [
        gg_entries[n] for n in (2, 3, 4)
    ]
    for entry in entries:
        g, p = entry.g, entry.subalgebra
        basis = dm(p.basis).transpose()
        left_inverse = basis.transpose().matmul(basis).inv().matmul(basis.transpose())
        expected = []
        for b in p.basis:
            ad = dm(ad_matrix(g, b).entries)
            restricted = left_inverse.matmul(ad).matmul(basis)
            trace = sum((r[i] for i, r in enumerate(fractions(ad))), Fraction(0))
            trace -= sum((r[i] for i, r in enumerate(fractions(restricted))), Fraction(0))
            expected.append(trace)
        assert quotient_character(g, p).to_vector() == tuple(expected)
