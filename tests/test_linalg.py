from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modclass.linalg import (
    Matrix,
    NoSolutionError,
    SingularMatrixError,
    invert,
    kernel_basis,
    rat,
    rref,
    solve,
)
from oracles import entries, identity, mat_apply, matmul


def F(x):
    return Fraction(x)


class TestRat:
    def test_accepts_strings_and_ints(self):
        assert rat("2/3") == Fraction(2, 3)
        assert rat("-4") == Fraction(-4)
        assert rat(7) == Fraction(7)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            rat(1.5)
        with pytest.raises(ValueError):
            rat("1.5")


class TestMatrix:
    def test_dense_and_sparse_rows_agree(self):
        dense_rows = Matrix([[0, "1/2", 0], [3, 0, 0]])
        sparse_rows = Matrix([{1: F(1) / 2}, {0: 3, 2: 0}], 3)
        assert dense_rows == sparse_rows
        assert sparse_rows.sparse_rows == ({1: F(1) / 2}, {0: F(3)})
        assert entries(sparse_rows) == ((F(0), F(1) / 2, F(0)), (F(3), F(0), F(0)))

    def test_shape_is_checked(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3]])
        with pytest.raises(ValueError):
            Matrix([[1, 2]], 3)
        with pytest.raises(ValueError):
            Matrix([{3: 1}], 3)
        with pytest.raises(TypeError):
            Matrix([[1.5]])


class TestRref:
    def test_identity(self):
        result = rref(identity(2))
        assert result.reduced == identity(2)
        assert result.pivots == (0, 1)
        assert result.rank == 2

    def test_already_reduced_row(self):
        result = rref(Matrix([[1, 1]]))
        assert result.reduced == Matrix([[1, 1]])
        assert result.pivots == (0,)
        assert result.rank == 1

    def test_rank_deficient(self):
        result = rref(Matrix([[2, 4], [1, 2]]))
        assert result.reduced == Matrix([[1, 2], [0, 0]])
        assert result.pivots == (0,)
        assert result.rank == 1


class TestKernel:
    def test_injective(self):
        assert kernel_basis(identity(3)) == []

    def test_rank_one(self):
        assert kernel_basis(Matrix([[1, 1]])) == [(F(-1), F(1))]

    def test_zero_map(self):
        basis = kernel_basis(Matrix([[0, 0, 0]]))
        assert basis == [
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(0), F(0), F(1)),
        ]


class TestSolve:
    def test_identity(self):
        s = solve(identity(2), [F(3), F(5)])
        assert s.vector == (F(3), F(5)) and s.unique

    def test_free_variable_convention(self):
        s = solve(Matrix([[1, 1]]), [F(2)])
        assert s.vector == (F(2), F(0))
        assert not s.unique

    def test_inconsistent(self):
        with pytest.raises(NoSolutionError):
            solve(Matrix([[1], [1]]), [F(1), F(2)])


class TestInvert:
    def test_identity(self):
        assert invert(identity(3)) == identity(3)

    def test_rotation(self):
        assert invert(Matrix([[0, 1], [-1, 0]])) == Matrix([[0, -1], [1, 0]])

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            invert(Matrix([[1, 1], [1, 1]]))


small_entries = st.integers(min_value=-6, max_value=6)


def matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(Matrix)
        )
    )


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_rref_idempotent(m):
    reduced = rref(m).reduced
    assert rref(reduced).reduced == reduced


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_rank_nullity(m):
    assert rref(m).rank + len(kernel_basis(m)) == m.cols


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_kernel_vectors_annihilated(m):
    for v in kernel_basis(m):
        assert all(x == 0 for x in mat_apply(m, v))


@settings(deadline=None, max_examples=60)
@given(
    matrices(),
    st.lists(small_entries, min_size=1, max_size=5),
)
def test_solve_substitution_exact(m, raw):
    b = [Fraction(x) for x in raw[: m.rows]] + [Fraction(0)] * max(0, m.rows - len(raw))
    try:
        s = solve(m, b)
    except NoSolutionError:
        # inconsistent exactly when b raises the rank
        augmented = Matrix([list(row) + [x] for row, x in zip(entries(m), b)])
        assert rref(augmented).rank > rref(m).rank
        return
    assert mat_apply(m, s.vector) == tuple(b)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(Matrix)
))
def test_double_inverse(m):
    try:
        inv = invert(m)
    except SingularMatrixError:
        return
    assert matmul(m, inv) == identity(m.rows)
    assert invert(inv) == m
