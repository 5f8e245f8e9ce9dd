import dataclasses
import itertools
from fractions import Fraction

import pytest

from modclass.catalog import (
    affine_algebra,
    entry_names,
    get_entry,
    gg_example,
    gg_r_matrix,
    gl,
    q_example,
    q_mu,
    q_printed_psi,
    q_printed_r,
    q_psi_discrepancy,
    sl,
)
from modclass.liealg import (
    Cochain,
    LieAlgebra,
    Multivector,
    Subalgebra,
    ce_differential,
    check_jacobi,
)
from modclass.linalg import Matrix, solve
from oracles import dense_bracket, entries, from_columns, mat_sub, matmul

def F(x):
    return Fraction(x)


# Test oracle for the catalog's closed-form structure constants: form the
# matrix commutators explicitly and solve for their basis coordinates.


def matrix_basis_algebra(labels, matrices):
    """Structure constants from a basis of square matrices (exact arithmetic)."""
    mats = [Matrix(m) for m in matrices]
    flats = [[x for row in entries(m) for x in row] for m in mats]
    basis = from_columns(flats)
    table = {}
    for a, b in itertools.combinations(range(len(mats)), 2):
        comm = mat_sub(matmul(mats[a], mats[b]), matmul(mats[b], mats[a]))
        flat = [x for row in entries(comm) for x in row]
        coords = solve(basis, flat).vector
        entry = {k: c for k, c in enumerate(coords) if c != 0}
        if entry:
            table[(a, b)] = entry
    return LieAlgebra(labels, table)


def elementary(n, i, j):
    return [[1 if (r, c) == (i - 1, j - 1) else 0 for c in range(n)] for r in range(n)]


def matrix_gl(n):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return matrix_basis_algebra(
        [f"e{i}{j}" for i, j in pairs], [elementary(n, i, j) for i, j in pairs]
    )


def matrix_sl(n):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    labels = [f"e{i}{j}" for i, j in pairs] + [f"h{k}" for k in range(1, n)]
    mats = [elementary(n, i, j) for i, j in pairs]
    for k in range(1, n):
        h = [[0] * n for _ in range(n)]
        h[k - 1][k - 1] = 1
        h[k][k] = -1
        mats.append(h)
    return matrix_basis_algebra(labels, mats)


def matrix_affine():
    pairs = [(i, j) for i in range(1, 3) for j in range(1, 4)]
    return matrix_basis_algebra(
        [f"e{i}{j}" for i, j in pairs], [elementary(3, i, j) for i, j in pairs]
    )


class TestMatrixBasisOracle:
    @staticmethod
    def assert_same(closed, oracle):
        assert closed.labels == oracle.labels
        assert closed.table == oracle.table
        # insertion order too, so iteration over the tables agrees
        assert list(closed.table) == list(oracle.table)
        assert all(list(closed.table[k]) == list(oracle.table[k]) for k in closed.table)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_gl(self, n):
        self.assert_same(gl(n), matrix_gl(n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sl(self, n):
        self.assert_same(sl(n), matrix_sl(n))

    def test_affine(self):
        self.assert_same(affine_algebra(), matrix_affine())


class TestConstructors:
    def test_gl2(self, gl_algebras):
        g = gl_algebras[2]
        assert g.dim == 4
        assert g.labels == ("e11", "e12", "e21", "e22")
        e11, e12 = g.index("e11"), g.index("e12")
        assert g.bracket({e11: F(1)}, {e12: F(1)}) == {e12: 1}
        assert dense_bracket(g, g.basis_vector(e11), g.basis_vector(e12)) == g.basis_vector(e12)

    def test_gl3_dim(self, gl_algebras):
        assert gl_algebras[3].dim == 9

    def test_sl2(self):
        g = sl(2)
        assert g.dim == 3
        assert check_jacobi(g).ok
        # [h1, e12] = 2 e12
        h, e = g.index("h1"), g.index("e12")
        assert g.bracket({h: F(1)}, {e: F(1)}) == {e: 2}

    def test_sl3_traceless_brackets(self):
        g = sl(3)
        assert g.dim == 8
        assert check_jacobi(g).ok

    def test_affine_algebra(self):
        g = affine_algebra()
        assert g.dim == 6
        assert check_jacobi(g).ok

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            gl(0)
        with pytest.raises(ValueError):
            sl(1)
        with pytest.raises(ValueError):
            q_example(1)
        with pytest.raises(ValueError):
            gg_example(1)


class TestAffineEntry:
    def test_expected_values_recompute(self, affine_entry):
        assert affine_entry.check_expected() == []

    def test_psi1_is_coboundary_of_minus_mu(self, affine_entry):
        g = affine_entry.g
        assert (
            ce_differential(g, -1 * affine_entry.mu) == affine_entry.printed_psi1
        )

    def test_twist_and_coboundary_twist_differ_off_carrier(self, affine_entry):
        # psi and psi1 are different cocycles defining the same structure
        diff = affine_entry.printed_psi1 - affine_entry.structure.psi
        assert not diff.is_zero()
        g = affine_entry.g
        assert ce_differential(g, diff).is_zero()
        from modclass.liealg import pullback

        assert pullback(diff, affine_entry.structure.sharp_columns()).is_zero()


class TestQEntries:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
    def test_expected_values_recompute(self, n, q_entries):
        entry = q_entries[n] if n in q_entries else q_example(n)
        assert entry.check_expected() == []

    @pytest.mark.parametrize("n", [3, 4])
    def test_psi_is_coboundary_of_minus_mu(self, n, q_entries):
        entry = q_entries[n]
        assert entry.structure.psi == ce_differential(entry.g, -1 * entry.mu)

    def test_n3_representative_value(self, q_entries):
        entry = q_entries[3]
        g = entry.g
        expected = [F(0)] * 9
        expected[g.index("e13")] = F(-1)
        expected[g.index("e23")] = F(-1)
        assert entry.expected_representative == tuple(expected)

    def test_transcribed_psi_is_erratum(self):
        # the verbatim triple-sum transcription disagrees with the
        # recomputed coboundary; the single n=2 discrepancy is frozen here
        d2 = q_psi_discrepancy(2)
        g2 = gl(2)
        assert d2.terms == {
            (g2.index("e11"), g2.index("e12"), g2.index("e22")): F(-1)
        }
        d3 = q_psi_discrepancy(3)
        assert not d3.is_zero()
        assert q_psi_discrepancy(3).terms == d3.terms  # deterministic


class TestCheckExpectedControls:
    """``check_expected`` names each expected value that an entry changed
    by ``dataclasses.replace`` no longer recomputes."""

    @pytest.fixture(params=["affine", "q3"])
    def entry(self, request, affine_entry, q_entries):
        return affine_entry if request.param == "affine" else q_entries[3]

    @staticmethod
    def last_units(entry, d):
        """The subalgebra taken on trust from the last d unit rows of g."""
        units = range(entry.g.dim - d, entry.g.dim)
        p = Subalgebra(entry.g, [{k: F(1)} for k in units], units)
        assert p.rows != entry.subalgebra.rows
        return p

    def test_other_span_of_same_dim(self, entry):
        p = self.last_units(entry, entry.expected_carrier_dim)
        assert dataclasses.replace(entry, subalgebra=p).check_expected() == ["carrier_span"]

    def test_other_span_of_other_dim(self, entry):
        p = self.last_units(entry, entry.expected_carrier_dim - 1)
        changed = dataclasses.replace(entry, subalgebra=p, expected_carrier_dim=p.dim)
        assert changed.check_expected() == ["carrier_dim", "carrier_span"]

    def test_changed_representative(self, entry):
        theta = list(entry.expected_representative)
        theta[0] += 1
        changed = dataclasses.replace(entry, expected_representative=tuple(theta))
        assert changed.check_expected() == ["representative"]

    def test_changed_printed_r(self, entry):
        r = entry.printed_r + Multivector(entry.g.dim, 2, {(0, 1): F(1)})
        assert dataclasses.replace(entry, printed_r=r).check_expected() == ["printed_r"]

    def test_unchanged_entry_matches(self, entry):
        assert dataclasses.replace(entry).check_expected() == []


class TestGGEntries:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
    def test_expected_values_recompute(self, n, gg_entries):
        entry = gg_entries[n] if n in gg_entries else gg_example(n)
        assert entry.check_expected() == []

    def test_n2_r_matrix(self, gg_entries):
        entry = gg_entries[2]
        g = entry.g
        # (1/2) h1 ^ e12, written in sorted coordinates
        assert entry.structure.r == Multivector(
            g.dim, 2, {(g.index("e12"), g.index("h1")): Fraction(-1, 2)}
        )

    def test_n3_representative_value(self, gg_entries):
        entry = gg_entries[3]
        g = entry.g
        expected = [F(0)] * g.dim
        expected[g.index("e12")] = F(-2)
        expected[g.index("e23")] = F(-1)
        assert entry.expected_representative == tuple(expected)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_untwisted_yang_baxter(self, n, gg_entries):
        assert gg_entries[n].structure.verify().passed

    @pytest.mark.parametrize("n", [2, 3])
    def test_r_matches_frobenius_inverse(self, n, gg_entries):
        # the printed bivector is exactly the inverse of the form induced
        # by the Frobenius 1-cochain on the parabolic carrier
        from modclass.frobenius import invert_cochain, mu_from_xi

        entry = gg_entries[n]
        p = entry.subalgebra
        xi = p.restrict_cochain(entry.xi)
        assert invert_cochain(p, mu_from_xi(p, xi)) == entry.structure.r


# The closed forms as sums of wedges of basis elements, one ``+`` per term:
# the catalog builds each from one list of terms instead.


def wedge_sum_q_form(g, n, kind):
    e = lambda i, j: kind.basis(g.dim, g.index(f"e{i}{j}"))
    out = kind.zero(g.dim, 2)
    for i in range(1, n):
        for j in range(i + 1, n):
            out = out + e(i, j).wedge(e(j, i))
    for i in range(1, n):
        out = out + e(i, i).wedge(e(i, n))
    return out


def wedge_sum_q_psi(g, n):
    c = lambda i, j: Cochain.basis(g.dim, g.index(f"e{i}{j}"))
    out = Cochain.zero(g.dim, 3)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            sign = (i > j) - (i < j)
            if sign == 0:
                continue
            for k in range(1, n + 1):
                out = out + sign * c(i, k).wedge(c(k, j)).wedge(c(j, i))
    for i in range(1, n):
        for k in range(1, n):
            if i != k:
                out = out + c(i, k).wedge(c(k, i)).wedge(c(i, n))
    for i in range(1, n):
        for k in range(1, n):
            out = out - c(i, i).wedge(c(i, k)).wedge(c(k, n))
    return out


def wedge_sum_gg_r(g, n):
    v = lambda i, j: Multivector.basis(g.dim, g.index(f"e{i}{j}"))

    def diag_weight(k):
        out = Multivector.zero(g.dim, 1)
        for i in range(1, n):
            coeff = Fraction(i * (n - k), n) if i <= k else Fraction(k * (n - i), n)
            if coeff != 0:
                out = out + coeff * Multivector.basis(g.dim, g.index(f"h{i}"))
        return out

    out = Multivector.zero(g.dim, 2)
    for k in range(1, n):
        out = out + diag_weight(k).wedge(v(k, k + 1))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for m in range(1, j - i):
                out = out + v(i, j - m + 1).wedge(v(j, i + m))
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_forms_match_wedge_sums(n):
    g = gl(n)
    assert q_mu(g, n) == wedge_sum_q_form(g, n, Cochain)
    assert q_printed_r(g, n) == wedge_sum_q_form(g, n, Multivector)
    assert q_printed_psi(g, n) == wedge_sum_q_psi(g, n)
    s = sl(n)
    assert gg_r_matrix(s, n) == wedge_sum_gg_r(s, n)
    xi = Cochain.zero(s.dim, 1)
    for i in range(1, n):
        xi = xi + Cochain.basis(s.dim, s.index(f"e{i}{i + 1}"))
    assert gg_example(n).xi == xi


class TestRegistry:
    def test_names(self):
        assert entry_names() == ["affine", "gg", "q"]

    def test_get_entry_dispatch(self):
        assert get_entry("affine").name == "affine"
        assert get_entry("q", 2).n == 2
        with pytest.raises(KeyError):
            get_entry("nope")
        with pytest.raises(ValueError):
            get_entry("q")
        with pytest.raises(ValueError):
            get_entry("affine", 3)
