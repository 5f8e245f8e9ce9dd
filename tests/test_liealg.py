import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    heisenberg,
    make_random_linearize_input,
    random_cochain,
    random_multivector,
    solvable4,
)
from modclass.catalog import affine_algebra, gl, q_subalgebra, sl
from modclass.frobenius import DegenerateFormError, linearize, mu_from_xi
from modclass.liealg import (
    Cochain,
    JacobiReport,
    JacobiViolationError,
    LieAlgebra,
    Multivector,
    NotClosedError,
    Subalgebra,
    annihilator,
    ce_differential,
    check_jacobi,
    coadjoint_character,
    interior,
    pair,
    pullback,
    quotient_character,
    span_subalgebra,
    trace_adjoint,
    whole_algebra,
)
from modclass.linalg import Matrix, kernel_basis, rref, solve
from modclass.twisted import carrier_and_kernel, dual_lie_algebra
from oracles import (
    ad_matrix,
    ce_differential_fraction,
    closure_table,
    column,
    dense_bracket,
    entries,
    from_columns,
    mat_add,
    mat_is_zero,
    mat_sub,
    alternating_terms,
    mat_trace,
    matmul,
    pullback_by_evaluation,
    restrict_by_evaluation,
    subalgebra_algebra,
    trace_by_table,
    zeros,
)
from test_twisted import gl3_rescaled


def F(x):
    return Fraction(x)


def sparse_vectors(dim):
    coeff = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4))
    return st.dictionaries(st.integers(0, dim - 1), coeff.map(Fraction), max_size=dim)


class TestBracket:
    def test_gl2_elementary(self, gl_algebras):
        g = gl_algebras[2]
        e11, e12 = g.index("e11"), g.index("e12")
        assert g.bracket({e11: F(1)}, {e12: F(1)}) == {e12: 1}

    def test_alternating(self, gl_algebras):
        g = gl_algebras[2]
        rng = random.Random(7)
        for _ in range(20):
            x = {k: F(rng.randint(-5, 5)) for k in range(4)}
            assert g.bracket(x, x) == {}

    def test_heisenberg_antisymmetry(self):
        g = heisenberg()
        assert g.bracket({1: F(1)}, {0: F(1)}) == {2: -1}

    def test_dimension_mismatch(self, gl_algebras):
        # the dense oracle checks lengths; the sparse bracket has no length,
        # so it checks every index of both arguments against the basis
        g = heisenberg()
        with pytest.raises(ValueError):
            dense_bracket(g, (F(1),), (F(0), F(0), F(0)))
        with pytest.raises(IndexError):
            g.bracket({3: F(1)}, {0: F(1)})
        # a negative index in x would alias from the end, giving [e22, e12],
        # and an index past the basis in y would be dropped
        with pytest.raises(IndexError):
            gl_algebras[2].bracket({-1: F(1)}, {1: F(1)})
        with pytest.raises(IndexError):
            gl_algebras[2].bracket({0: F(1)}, {7: F(1)})

    @settings(deadline=None, max_examples=150)
    @given(data=st.data(), which=st.sampled_from(["gl3", "solvable4", "affine"]))
    def test_matches_dense_oracle(self, data, which):
        g = {"gl3": gl(3), "solvable4": solvable4(), "affine": affine_algebra()}[which]
        x = data.draw(sparse_vectors(g.dim))
        y = data.draw(sparse_vectors(g.dim))
        w = g.bracket(x, y)
        assert all(c != 0 for c in w.values())
        dx = tuple(x.get(k, F(0)) for k in range(g.dim))
        dy = tuple(y.get(k, F(0)) for k in range(g.dim))
        assert tuple(w.get(k, F(0)) for k in range(g.dim)) == dense_bracket(g, dx, dy)


class TestJacobi:
    def test_gl2_passes(self, gl_algebras):
        assert check_jacobi(gl_algebras[2]).ok

    def test_heisenberg_passes(self):
        assert check_jacobi(heisenberg()).ok

    def test_violator_reported(self):
        with pytest.raises(JacobiViolationError) as err:
            LieAlgebra(
                ["e1", "e2", "e3"],
                {(0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {0: 1}},
            )
        assert err.value.triple == (0, 1, 2)
        assert err.value.residual == (F(2), F(0), F(0))

    def test_unchecked_construction_then_report(self):
        g = LieAlgebra(
            ["e1", "e2", "e3"],
            {(0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {0: 1}},
            check=False,
        )
        report = check_jacobi(g)
        assert not report.ok and report.triple == (0, 1, 2)


class TestIntegerTable:
    def test_scale_and_by_output(self):
        g = LieAlgebra(
            ["a", "b", "c", "d"],
            {(0, 1): {1: F(1) / 2, 3: F(2) / 3}, (0, 2): {2: 5}, (1, 2): {3: F(-1) / 4}},
            check=False,
        )
        view = g.integer_table()
        assert view is g.integer_table()
        assert view.scale == 12
        assert view.by_output == [[], [(0, 1, 6)], [(0, 2, 60)], [(0, 1, 8), (1, 2, -3)]]

    def test_one_view_per_algebra(self, affine_entry):
        # built by the Jacobi check at construction, read again by d and
        # the Yang-Baxter residual
        from modclass.twisted import _cybe_residual

        st = affine_entry.structure
        g = LieAlgebra(st.g.labels, st.g.table)
        view = g.integer_table()
        ce_differential(g, st.psi)
        _cybe_residual(g, st.r, st.psi)
        assert g.integer_table() is view
        assert LieAlgebra([], {}).integer_table().scale == 1


class TestTableKeys:
    def test_stores_the_callers_key(self, gl_algebras):
        # the table keeps the caller's (i, j) tuple, not a copy of it
        source = gl_algebras[3].table
        g = LieAlgebra(gl_algebras[3].labels, source)
        assert g.table == source
        for key in source:
            stored = next(k for k in g.table if k == key)
            assert stored is key

    def test_zero_entries_and_bad_keys(self):
        g = LieAlgebra(["a", "b", "c"], {(0, 1): {2: 1}, (0, 2): {}}, check=False)
        assert g.table == {(0, 1): {2: 1}}
        with pytest.raises(ValueError, match=r"bracket key \(1, 0\)"):
            LieAlgebra(["a", "b"], {(1, 0): {0: 1}})


def jacobi_by_triples(g):
    """Oracle: the jacobiator of every basis triple in order, first failure reported."""
    for i, j, k in itertools.combinations(range(g.dim), 3):
        res = g.jacobiator(i, j, k)
        if any(c != 0 for c in res):
            return JacobiReport(False, (i, j, k), res)
    return JacobiReport(True)


def failing_triples(g):
    return sum(
        any(g.jacobiator(*t)) for t in itertools.combinations(range(g.dim), 3)
    )


def perturbed_table(rng, g):
    """g's bracket table with one to three entries changed to small rationals."""
    table = {key: dict(entry) for key, entry in g.table.items()}
    for _ in range(rng.randint(1, 3)):
        i, j = sorted(rng.sample(range(g.dim), 2))
        k = rng.randrange(g.dim)
        table.setdefault((i, j), {})[k] = rng.choice(
            [F(0), F(1), F(-1), F(2), Fraction(1, 3), Fraction(-3, 2)]
        )
    return LieAlgebra(g.labels, table, check=False)


@st.composite
def sparse_tables(draw):
    dim = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(dim), 2))
    coeffs = st.sampled_from([F(1), F(-1), F(2), Fraction(1, 3), Fraction(-3, 2), Fraction(5, 7)])
    keys = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    table = {
        key: draw(st.dictionaries(st.integers(0, dim - 1), coeffs, min_size=1, max_size=2))
        for key in keys
    }
    return LieAlgebra([f"x{i}" for i in range(dim)], table, check=False)


class TestJacobiAgainstOracle:
    """check_jacobi gives the per-triple loop's report: verdict, first triple, residual."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_gl(self, n):
        g = gl(n)
        assert check_jacobi(g) == jacobi_by_triples(g) == JacobiReport(True)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_sl(self, n):
        g = sl(n)
        assert check_jacobi(g) == jacobi_by_triples(g) == JacobiReport(True)

    def test_affine(self):
        g = affine_algebra()
        assert check_jacobi(g) == jacobi_by_triples(g) == JacobiReport(True)

    def test_catalog_duals(self, affine_entry, q_entries, gg_entries):
        entries = [affine_entry, *q_entries.values(), *gg_entries.values()]
        for entry in entries:
            dual = dual_lie_algebra(entry.structure)
            assert check_jacobi(dual) == jacobi_by_triples(dual) == JacobiReport(True)

    def test_seeded_linearization_duals(self):
        rng = random.Random(505)
        for _ in range(20):
            dual = dual_lie_algebra(linearize(*make_random_linearize_input(rng)))
            assert check_jacobi(dual) == jacobi_by_triples(dual) == JacobiReport(True)

    def test_perturbed_tables(self, gl_algebras):
        bases = [heisenberg(), solvable4(), gl_algebras[2], gl_algebras[3], sl(3), affine_algebra()]
        rng = random.Random(404)
        failing = []
        for _ in range(240):
            g = perturbed_table(rng, rng.choice(bases))
            report = check_jacobi(g)
            assert report == jacobi_by_triples(g)
            if not report.ok:
                failing.append(failing_triples(g))
        # most perturbations break Jacobi, many at several triples at once,
        # so the lexicographically first witness is pinned
        assert len(failing) >= 150
        assert sum(count >= 3 for count in failing) >= 100

    def test_witness_is_lexicographically_first(self):
        # [x2, x3] = x1 / 3 and [x0, x1] = x3 fail at (0, 1, 2) and (0, 2, 3);
        # the table lists the entry of the later triple first
        g = LieAlgebra(
            ["x0", "x1", "x2", "x3"],
            {(2, 3): {1: Fraction(1, 3)}, (0, 1): {3: 1}},
            check=False,
        )
        assert failing_triples(g) == 2
        assert check_jacobi(g) == jacobi_by_triples(g)
        assert check_jacobi(g) == JacobiReport(False, (0, 1, 2), (0, Fraction(-1, 3), 0, 0))

    @settings(deadline=None, max_examples=200)
    @given(g=sparse_tables())
    def test_random_sparse_tables(self, g):
        assert check_jacobi(g) == jacobi_by_triples(g)


class TestWedge:
    def test_square_is_zero(self):
        e1 = Multivector.basis(3, 0)
        assert e1.wedge(e1).is_zero()

    def test_anticommute_degree_one(self):
        e1, e2 = Multivector.basis(3, 0), Multivector.basis(3, 1)
        assert e2.wedge(e1) == -(e1.wedge(e2))

    def test_disjoint_triple(self):
        e1, e2, e3 = (Multivector.basis(3, i) for i in range(3))
        assert e1.wedge(e2).wedge(e3) == Multivector(3, 3, {(0, 1, 2): 1})

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Multivector.basis(3, 0).wedge(Cochain.basis(3, 1))

    def test_graded_commutativity(self):
        rng = random.Random(3)
        for ka, kb in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            a = random_cochain(rng, 5, ka)
            b = random_cochain(rng, 5, kb)
            sign = (-1) ** (ka * kb)
            assert a.wedge(b) == sign * b.wedge(a)

    def test_associativity(self):
        rng = random.Random(4)
        for _ in range(10):
            a = random_cochain(rng, 5, 1)
            b = random_cochain(rng, 5, 1)
            c = random_cochain(rng, 5, 2)
            assert a.wedge(b.wedge(c)) == (a.wedge(b)).wedge(c)


COEFFICIENTS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.sampled_from(["1/2", "-3", "0", " 2 ", "0/5", "2/0", "x", "1.5"]),
    st.floats(-2, 2, width=16),
)


@st.composite
def term_lists(draw):
    """(dim, degree, terms): index tuples unsorted, repeated, out of range or
    of the wrong length, coefficients of every accepted and rejected kind,
    and terms that cancel an earlier one."""
    dim = draw(st.integers(0, 4))
    degree = draw(st.integers(-1, 3))
    lengths = st.integers(max(degree - 1, 0), degree + 1)
    indices = lengths.flatmap(lambda k: st.lists(st.integers(-1, dim), min_size=k, max_size=k))
    terms = draw(st.lists(st.tuples(indices, COEFFICIENTS), max_size=8))
    # reversing two or three indices is an odd permutation, so the reversed
    # tuple with the same coefficient cancels the term
    for idx, coeff in draw(st.lists(st.sampled_from(terms), max_size=3)) if terms else []:
        terms.append((idx[::-1], coeff))
    return dim, degree, terms


def construction(cls, dim, degree, terms):
    """The terms the constructor keeps, or the type of what it raised."""
    try:
        return cls(dim, degree, terms).terms
    except Exception as exc:  # compared by type with the oracle's
        return type(exc)


def reference(dim, degree, terms):
    try:
        return alternating_terms(dim, degree, terms)
    except Exception as exc:
        return type(exc)


class TestAlternatingConstructor:
    """The constructor that stores a new sorted slot directly, against the
    loop that summed every term in Fractions (``oracles.alternating_terms``)."""

    @settings(deadline=None, max_examples=400)
    @given(case=term_lists())
    def test_matches_fraction_loop(self, case):
        dim, degree, terms = case
        expected = reference(dim, degree, terms)
        for cls in (Multivector, Cochain):
            assert construction(cls, dim, degree, terms) == expected
            mapping = {tuple(idx): coeff for idx, coeff in terms}
            assert construction(cls, dim, degree, mapping) == reference(dim, degree, mapping)
        if isinstance(expected, dict):
            assert all(type(c) is Fraction and c for c in expected.values())

    def test_examples(self):
        assert Cochain(4, 2, [((2, 1), 3), ((1, 2), "1/2")]).terms == {(1, 2): Fraction(-5, 2)}
        assert Cochain(4, 2, [((1, 2), 3), ((2, 1), 3)]).terms == {}
        assert Cochain(4, 3, [((3, 1, 2), 1), ((1, 1, 2), 5)]).terms == {(1, 2, 3): 1}
        assert Cochain(4, 2, [((5, 1), 0)]).terms == {}
        assert Cochain(1, 0, {(): 2}).terms == {(): 2}
        for bad, error in [
            ([((1, 5), 1)], ValueError),
            ([((3, 3, 9), 1)], ValueError),
            ([((0, 1, 2), 1)], ValueError),
            ([((0, 1), 0.5)], TypeError),
            ([((0, 1), "x")], ValueError),
        ]:
            with pytest.raises(error):
                Cochain(4, 2, bad)


class TestInterior:
    def test_first_slot_convention(self):
        alpha = Cochain.basis(4, 0)
        m = Multivector(4, 2, {(0, 1): 1})
        assert interior(alpha, m) == Multivector.basis(4, 1)

    def test_zero_input(self):
        assert interior(Cochain.basis(4, 2), Multivector.zero(4, 2)).is_zero()

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            interior(Cochain.basis(4, 0), Multivector(4, 0, {(): 1}))

    @pytest.mark.parametrize("n", [3, 4])
    def test_q_family_contractions(self, n, q_entries):
        # i_{e_ii*} r = e_in for the catalog bivector on gl(n)
        entry = q_entries[n]
        g = entry.g
        for i in range(1, n):
            got = interior(Cochain.basis(g.dim, g.index(f"e{i}{i}")), entry.structure.r)
            assert got == Multivector.basis(g.dim, g.index(f"e{i}{n}"))

    def test_adjoint_to_wedge(self):
        rng = random.Random(5)
        for _ in range(10):
            alpha = random_cochain(rng, 5, 1)
            beta = random_cochain(rng, 5, 2)
            m = __import__("conftest").random_multivector(rng, 5, 3)
            assert pair(beta, interior(alpha, m)) == pair(alpha.wedge(beta), m)


def d_direct(g, c):
    """Alternating-sum form of the package differential; independent oracle."""
    terms = {}
    for idx in itertools.combinations(range(g.dim), c.degree + 1):
        total = Fraction(0)
        for s, t in itertools.combinations(range(len(idx)), 2):
            rest = tuple(idx[u] for u in range(len(idx)) if u not in (s, t))
            for m, cm in g.bracket_basis(idx[s], idx[t]).items():
                total += (-1) ** (s + t + 1) * cm * c.coefficient(*((m,) + rest))
        if total != 0:
            terms[idx] = total
    return Cochain(g.dim, c.degree + 1, terms)


def random_rational_cochain(rng, dim, degree, density=0.5):
    # coefficients over a few small denominators and a few longer ones, so
    # the per-denominator accumulators of ce_differential see both
    dens = [1, 2, 3, 6, 7, 10**30 + 57, 10**31 + 7]
    terms = {}
    for idx in itertools.combinations(range(dim), degree):
        if rng.random() < density:
            c = Fraction(rng.randint(-9, 9), rng.choice(dens))
            if c:
                terms[idx] = c
    return Cochain(dim, degree, terms)


@functools.cache
def differential_algebra(name):
    return {
        "heisenberg": heisenberg,
        "solvable4": solvable4,
        "gl3": lambda: gl(3),
        "gl3_rescaled": gl3_rescaled,
        "gl9": lambda: gl(9),
    }[name]()


@st.composite
def differential_cases(draw):
    """A drawn algebra and a cochain of degree 0..4 on it, its index tuples
    in any order, over short and 30-digit denominators; some terms come
    with a reversed copy that cancels them in the constructor."""
    g = differential_algebra(
        draw(st.sampled_from(["heisenberg", "solvable4", "gl3", "gl3_rescaled", "gl9"]))
    )
    degree = draw(st.integers(0, min(4, g.dim)))
    index = st.lists(st.integers(0, g.dim - 1), min_size=degree, max_size=degree, unique=True)
    denominator = st.one_of(st.integers(1, 12), st.integers(10**29, 10**30 - 1))
    coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), denominator)
    terms = []
    for idx, c, cancel in draw(st.lists(st.tuples(index, coeff, st.booleans()), max_size=8)):
        terms.append((idx, c))
        if cancel:
            # reversing k indices takes k(k - 1)/2 transpositions
            terms.append((idx[::-1], -c if degree * (degree - 1) // 2 % 2 == 0 else c))
    return g, Cochain(g.dim, degree, terms)


class TestDifferential:
    @pytest.mark.parametrize("name", ["gl3", "gl4", "gl5", "sl4"])
    def test_matches_fraction_oracle(self, name):
        g = {"gl3": gl(3), "gl4": gl(4), "gl5": gl(5), "sl4": sl(4)}[name]
        rng = random.Random(sum(map(ord, name)))
        for degree in (1, 2, 3):
            for _ in range(3):
                c = random_rational_cochain(rng, g.dim, degree, density=0.3 / degree)
                assert ce_differential(g, c) == ce_differential_fraction(g, c)

    def test_rational_table_matches_fraction_oracle(self):
        # a table with denominators: gl(3) in a rescaled basis
        g0 = gl(3)
        rng = random.Random(5)
        scale = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(g0.dim)]
        table = {
            (i, j): {k: c * scale[i] * scale[j] / scale[k] for k, c in entry.items()}
            for (i, j), entry in g0.table.items()
        }
        g = LieAlgebra(g0.labels, table)
        for degree in (1, 2, 3):
            c = random_rational_cochain(rng, g.dim, degree, density=0.2)
            assert ce_differential(g, c) == ce_differential_fraction(g, c)

    @settings(max_examples=80, deadline=None)
    @given(differential_cases())
    def test_mask_keys_match_fraction_oracle(self, case):
        # gl(9) has dimension 81, so its masks have bits above 63
        g, c = case
        dc = ce_differential(g, c)
        assert dc == ce_differential_fraction(g, c)
        assert ce_differential(g, dc).is_zero()

    def test_indices_above_63(self):
        g = differential_algebra("gl9")
        e = g.index
        big = 10**30 + 57
        psi = Cochain(
            g.dim,
            3,
            {(e("e88"), e("e89"), e("e99")): 1, (e("e87"), e("e91"), e("e98")): Fraction(3, big)},
        )
        assert min(i for idx in psi.terms for i in idx) >= 64
        dpsi = ce_differential(g, psi)
        assert not dpsi.is_zero()
        assert dpsi == ce_differential_fraction(g, psi)
        # -e*_88 ^ d e*_89 ^ e*_99 with the term e*_81 ^ e*_19 of d e*_89
        assert dpsi.coefficient(e("e19"), e("e81"), e("e88"), e("e99")) == 1

    def test_parts_over_different_denominators_cancel(self):
        # psi = d mu + nu with mu over 7 and over a 30-digit prime-free
        # denominator: at (e13, e21, e32) the terms of psi over 7, big and
        # 7 big put parts that cancel, so that key is absent from d psi
        g = gl(3)
        e = g.index
        big = 10**29 + 7
        mu = Cochain(g.dim, 1, {
            (e("e11"),): Fraction(1, 7),
            (e("e12"),): Fraction(2, 7),
            (e("e22"),): Fraction(1, big),
            (e("e23"),): Fraction(3, big),
        })
        psi = ce_differential_fraction(g, mu) + Cochain(g.dim, 2, {(e("e11"), e("e12")): 1})
        key = (e("e13"), e("e21"), e("e32"))
        parts = [
            ce_differential_fraction(g, Cochain(g.dim, 2, {idx: c})).coefficient(*key)
            for idx, c in psi.terms.items()
        ]
        parts = [x for x in parts if x]
        assert {x.denominator for x in parts} == {7, big, 7 * big}
        assert sum(parts) == 0
        dpsi = ce_differential(g, psi)
        assert dpsi == ce_differential_fraction(g, psi)
        assert key not in dpsi.terms
        assert not dpsi.is_zero()

    def test_rescaled_closed_twist(self, q_entries):
        # q(3) in the basis f_i = s_i e_i, each s_i a ratio of two seeded
        # 20-digit ints: the table becomes c^k_ij s_i s_j / s_k and psi
        # becomes psi_ijk s_i s_j s_k, which stays closed, so the parts of
        # d psi, over long and unequal denominators, cancel
        rng = random.Random(20)
        st = q_entries[3].structure
        s = [
            Fraction(rng.randrange(10**19, 10**20), rng.randrange(10**19, 10**20))
            for _ in range(st.g.dim)
        ]
        table = {
            (i, j): {k: c * s[i] * s[j] / s[k] for k, c in entry.items()}
            for (i, j), entry in st.g.table.items()
        }
        g = LieAlgebra(st.g.labels, table)
        psi = Cochain(g.dim, 3, {
            (i, j, k): c * s[i] * s[j] * s[k] for (i, j, k), c in st.psi.terms.items()
        })
        assert len({c.denominator for c in psi.terms.values()}) > 1
        assert min(c.denominator for c in psi.terms.values()) > 10**20
        assert g.integer_table().scale > 10**20
        dpsi = ce_differential(g, psi)
        assert dpsi.is_zero()
        assert dpsi == ce_differential_fraction(g, psi)

    def test_mask_index_is_built_once_on_demand(self):
        g0 = gl(3)
        g = LieAlgebra(g0.labels, g0.table)
        view = g.integer_table()
        assert view._masks is None
        ce_differential(g, Cochain.zero(g.dim, 2))
        assert view._masks is None
        ce_differential(g, Cochain.basis(g.dim, 4))
        masks = view._masks
        assert masks is not None
        ce_differential(g, Cochain(g.dim, 2, {(0, 8): 3}))
        assert g.integer_table().masks is masks
        for terms, mask_terms in zip(view.by_output, masks, strict=True):
            assert mask_terms == [
                (2**i + 2**j, sum(2**k for k in range(i + 1, j)), w, -w) for i, j, w in terms
            ]

    def test_degree_zero(self):
        g = heisenberg()
        assert ce_differential(g, Cochain(3, 0, {(): 5})).is_zero()

    def test_heisenberg_center(self):
        # with this package's orientation, d z* = +x*^y* (so that
        # d xi evaluates as xi([.,.]) in degree one)
        g = heisenberg()
        assert ce_differential(g, Cochain.basis(3, 2)) == Cochain(3, 2, {(0, 1): 1})

    def test_degree_one_evaluates_on_brackets(self):
        g = solvable4()
        rng = random.Random(11)
        for _ in range(10):
            xi = random_cochain(rng, 4, 1)
            dxi = ce_differential(g, xi)
            x = tuple(F(rng.randint(-3, 3)) for _ in range(4))
            y = tuple(F(rng.randint(-3, 3)) for _ in range(4))
            assert dxi.evaluate(x, y) == xi.evaluate(dense_bracket(g, x, y))

    def test_affine_printed_coboundary(self, affine_entry):
        g = affine_entry.g
        assert ce_differential(g, -1 * affine_entry.mu) == affine_entry.printed_psi1

    def test_matches_direct_formula(self):
        rng = random.Random(12)
        for g in (heisenberg(), solvable4(), affine_algebra()):
            for degree in (1, 2, 3):
                for _ in range(5):
                    c = random_cochain(rng, g.dim, degree)
                    assert ce_differential(g, c) == d_direct(g, c)

    def test_d_squared_zero(self):
        rng = random.Random(13)
        for g in (heisenberg(), solvable4(), gl(2)):
            for degree in range(0, g.dim):
                for _ in range(5):
                    c = random_cochain(rng, g.dim, degree)
                    assert ce_differential(g, ce_differential(g, c)).is_zero()


class TestSubalgebra:
    def test_affine_carrier_span(self, affine_entry):
        g = affine_entry.g
        p = span_subalgebra(
            g, [g.basis_vector(g.index(lab)) for lab in ("e11", "e22", "e13", "e23")]
        )
        assert p.dim == 4
        assert p.pivots == (0, 2, 4, 5)

    def test_single_nilpotent_generator(self, gl_algebras):
        g = gl_algebras[2]
        p = span_subalgebra(g, [g.basis_vector(g.index("e12"))])
        assert p.dim == 1
        assert subalgebra_algebra(p).table == {}

    def test_not_closed_witness(self, gl_algebras):
        g = gl_algebras[2]
        with pytest.raises(NotClosedError) as err:
            span_subalgebra(
                g,
                [g.basis_vector(g.index("e12")), g.basis_vector(g.index("e21"))],
            )
        x, y, w = err.value.witness
        assert w == dense_bracket(g, x, y)
        # the witness bracket is e11 - e22, outside span{e12, e21}
        assert w[g.index("e11")] == 1 and w[g.index("e22")] == -1

    def test_dependent_spanning_set_canonicalized(self, gl_algebras):
        g = gl_algebras[2]
        e11 = g.basis_vector(g.index("e11"))
        p = span_subalgebra(g, [e11, tuple(2 * x for x in e11)])
        assert p.dim == 1 and p.basis == (e11,)

    def test_immutability(self, gl_algebras):
        g = gl_algebras[2]
        with pytest.raises(AttributeError):
            g.dim = 5
        c = Cochain.basis(4, 0)
        with pytest.raises(AttributeError):
            c.terms = {}
        p = whole_algebra(g)
        with pytest.raises(AttributeError):
            p.basis = ()

    def test_coords_roundtrip(self, gl_algebras):
        g = gl_algebras[2]
        p = span_subalgebra(
            g,
            [
                g.basis_vector(g.index("e12")),
                tuple(
                    F(1) if lab == "e11" else F(-1) if lab == "e22" else F(0)
                    for lab in g.labels
                ),
            ],
        )
        v = p.from_coords((F(2), F(-3)))
        assert p.coords_of({k: c for k, c in enumerate(v) if c}) == {0: 2, 1: -3}
        assert p.coords_of({g.index("e21"): F(1)}) is None
        assert p.coords_of({}) == {}

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), n=st.integers(2, 4))
    def test_closure_table_matches_pair_oracle(self, data, n):
        # random coordinate subalgebras of gl(n): spans of diagonal units
        # and the units above the diagonal of a random block order, plus up
        # to two random units, which may break closure; conjugated by
        # I + t e_ab, which gives rref rows with entries other than 0 and 1,
        # and for n = 3 possibly written in the rescaled basis (D = 6)
        from test_twisted import GL3_SCALES, gl3_rescaled

        g = gl(n)
        blocks = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        diag = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        extra = data.draw(st.lists(st.integers(0, n * n - 1), max_size=2))
        moves = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([-2, -1, 1, 2]))
            .filter(lambda m: m[0] != m[1]),
            max_size=2,
        ))
        coords = [
            g.index(f"e{i + 1}{j + 1}")
            for i in range(n)
            for j in range(n)
            if (i == j and diag[i]) or (i != j and blocks[i] < blocks[j])
        ]
        vectors = _conjugated_span(g, n, coords + extra, moves)
        if n == 3 and data.draw(st.booleans()):
            g = gl3_rescaled()
            vectors = [tuple(x / sk for x, sk in zip(v, GL3_SCALES)) for v in vectors]
        reduced, pivots, rank = rref(Matrix(vectors, g.dim))
        p = Subalgebra(g, reduced.sparse_rows[:rank], pivots)
        failing = _pairs_leaving_span(p)
        if failing:
            s, t = failing[0]
            for check in (p.check_closed, lambda: span_subalgebra(g, vectors)):
                with pytest.raises(NotClosedError) as err:
                    check()
                x, y = p.basis[s], p.basis[t]
                assert err.value.witness == (x, y, dense_bracket(g, x, y))
            return
        p.check_closed()
        assert span_subalgebra(g, vectors).rows == p.rows
        assert trace_adjoint(p) == trace_by_table(p)
        xi = Cochain(p.dim, 1, {(s,): F(data.draw(st.integers(-3, 3))) for s in range(p.dim)})
        assert mu_from_xi(p, xi) == ce_differential(subalgebra_algebra(p), xi)

    def test_closure_table_on_rref_rows(self, affine_entry, gg_entries):
        # the carriers as carrier_and_kernel builds them (their rref rows are
        # unit vectors; TestTraceAlongRows::test_non_unit_rows has others)
        for st_ in (affine_entry.structure, gg_entries[3].structure, gg_entries[4].structure):
            carrier, _ = carrier_and_kernel(st_)
            carrier.check_closed()
            assert _pairs_leaving_span(carrier) == []

    def test_not_closed_first_pair_and_dense_witness(self):
        # the first failing pair in basis order, (e12, e23) with bracket
        # e13, as a dense triple of Fractions, as the dense closure check gave
        g = gl(3)
        vectors = [g.basis_vector(g.index(lab)) for lab in ("e11", "e12", "e23", "e31")]
        with pytest.raises(NotClosedError) as err:
            span_subalgebra(g, vectors)
        x, y, w = err.value.witness
        assert (x, y) == (g.basis_vector(g.index("e12")), g.basis_vector(g.index("e23")))
        assert w == dense_bracket(g, x, y) == g.basis_vector(g.index("e13"))
        assert all(isinstance(c, Fraction) for c in x + y + w)


def _pairs_leaving_span(p):
    """The pairs s < t, in order, whose dense bracket is not the combination
    of the basis with the coordinates of ``closure_table``."""
    table = closure_table(p)
    failing = []
    for s, t in itertools.combinations(range(p.dim), 2):
        back = [F(0)] * p.parent.dim
        for k, c in table.get((s, t), {}).items():
            back = [x + c * y for x, y in zip(back, p.basis[k])]
        if dense_bracket(p.parent, p.basis[s], p.basis[t]) != tuple(back):
            failing.append((s, t))
    return failing


def _conjugated_span(g, n, coords, moves):
    """The basis units at coords, conjugated by I + t e_ab for each move (a, b, t).

    Conjugation is an automorphism of gl(n), so a closed span stays closed;
    mixing coordinates gives rref rows with entries other than 0 and 1.
    """
    mats = []
    for c in coords:
        i, j = (int(d) - 1 for d in g.labels[c][1:])
        m = [[F(0)] * n for _ in range(n)]
        m[i][j] = F(1)
        mats.append(m)
    for a, b, t in moves:
        for m in mats:
            # (I + t e_ab) m (I - t e_ab): add t * row b to row a, then
            # subtract t * column a from column b
            m[a] = [x + t * y for x, y in zip(m[a], m[b])]
            for row in m:
                row[b] -= t * row[a]
    return [
        tuple(m[int(lab[1]) - 1][int(lab[2]) - 1] for lab in g.labels) for m in mats
    ]


class TestRestrictAgainstEvaluation:
    """``restrict_cochain`` (pullback of terms) against the determinant rule."""

    @staticmethod
    def catalog_cochains(entry):
        g = entry.g
        out = [
            Cochain(g.dim, 0, {(): F(-3) / 2}),
            Cochain.from_covector([F(k + 1) / 2 for k in range(g.dim)]),
            entry.structure.psi,
        ]
        if entry.xi is not None:
            out += [entry.xi, ce_differential(g, entry.xi)]
        if entry.mu is not None:
            out.append(entry.mu)
        return out

    def check_entry(self, entry):
        p = entry.subalgebra
        degrees = set()
        for c in self.catalog_cochains(entry):
            assert p.restrict_cochain(c) == restrict_by_evaluation(p, c)
            degrees.add(c.degree)
        assert degrees == {0, 1, 2, 3}

    def test_affine_carrier(self, affine_entry):
        self.check_entry(affine_entry)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_q_carriers(self, n, q_entries):
        self.check_entry(q_entries[n])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_gg_carriers(self, n, gg_entries):
        self.check_entry(gg_entries[n])

    def test_seeded_linearization_spans(self):
        rng = random.Random(71)
        for _ in range(20):
            g, p, mu = make_random_linearize_input(rng)
            for c in (mu, ce_differential(g, mu)):
                assert p.restrict_cochain(c) == restrict_by_evaluation(p, c)

    def test_non_unit_rref_rows(self):
        # span(e11 + 2 e22 + 2 e33, e12 - e13): [X, Y] = -Y
        g = gl(3)
        x = {"e11": 1, "e22": 2, "e33": 2}
        y = {"e12": 1, "e13": -1}
        p = span_subalgebra(g, [tuple(F(v.get(lab, 0)) for lab in g.labels) for v in (x, y)])
        assert {c for row in p.rows for c in row.values()} == {1, 2, -1}
        rng = random.Random(72)
        for degree in range(4):
            for _ in range(5):
                c = random_cochain(rng, g.dim, degree, density=0.3)
                assert p.restrict_cochain(c) == restrict_by_evaluation(p, c)

    def test_zero_subalgebra(self, gl_algebras):
        g = gl_algebras[2]
        p = span_subalgebra(g, [])
        assert p.restrict_cochain(Cochain(g.dim, 0, {(): 5})) == Cochain(0, 0, {(): 5})
        rng = random.Random(73)
        for degree in range(4):
            c = random_cochain(rng, g.dim, degree)
            assert p.restrict_cochain(c) == restrict_by_evaluation(p, c)
            if degree:
                assert p.restrict_cochain(c).is_zero()

    @settings(deadline=None, max_examples=100)
    @given(
        data=st.data(), n=st.integers(2, 3), degree=st.integers(0, 3), conjugate=st.booleans()
    )
    def test_random_cochains_on_random_spans(self, data, n, degree, conjugate):
        g = gl(n)
        blocks = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        diag = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        coords = [
            g.index(f"e{i + 1}{j + 1}")
            for i in range(n)
            for j in range(n)
            if (i == j and diag[i]) or (i != j and blocks[i] < blocks[j])
        ]
        move = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
        moves = data.draw(
            st.lists(move.filter(lambda m: m[0] != m[1] and m[2]), min_size=1, max_size=3)
            if conjugate
            else st.just([])
        )
        p = span_subalgebra(g, _conjugated_span(g, n, coords, moves))
        # indices mostly where the basis rows are nonzero, so that the
        # restriction is rarely zero
        support = sorted({i for row in p.rows for i in row})
        pool = support if len(support) >= max(degree, 1) else list(range(g.dim))
        index = st.lists(st.sampled_from(pool), min_size=degree, max_size=degree, unique=True)
        terms = data.draw(
            st.lists(
                st.tuples(index, st.fractions(min_value=-5, max_value=5, max_denominator=4)),
                max_size=8,
            )
        )
        c = Cochain(g.dim, degree, terms)
        assert p.restrict_cochain(c) == restrict_by_evaluation(p, c)

class TestPullbackAgainstEvaluation:
    """``pullback`` along rows that are no rref basis, the r# columns and
    their carrier coordinates, against the determinant rule of ``evaluate``;
    for a multivector the same sums are a pushforward."""

    @staticmethod
    def check_structure(st, rng):
        cols = st.sharp_columns()
        carrier, _ = carrier_and_kernel(st)
        coords = [carrier.coords_of(col) for col in cols]
        for rows, width in ((cols, st.g.dim), (coords, carrier.dim)):
            for degree in (1, 2, 3):
                for make in (random_cochain, random_multivector):
                    scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
                    c = scale * make(rng, width, degree, density=0.2)
                    assert pullback(c, rows) == pullback_by_evaluation(c, rows)

    def test_catalog(self, affine_entry, q_entries, gg_entries):
        rng = random.Random(91)
        self.check_structure(affine_entry.structure, rng)
        for n in (2, 3, 4):
            self.check_structure(q_entries[n].structure, rng)
            self.check_structure(gg_entries[n].structure, rng)

    def test_seeded_linearizations(self):
        rng = random.Random(92)
        entries = set()
        for _ in range(6):
            st = linearize(*make_random_linearize_input(rng))
            entries.update(c for col in st.sharp_columns() for c in col.values())
            self.check_structure(st, rng)
        # r# columns with entries other than 0 and 1, unlike rref rows
        assert any(abs(c) != 1 for c in entries)


class TestAnnihilator:
    def test_whole_algebra(self, gl_algebras):
        g = gl_algebras[2]
        assert annihilator(g, whole_algebra(g)) == []

    def test_zero_subalgebra(self, gl_algebras):
        g = gl_algebras[2]
        p = span_subalgebra(g, [])
        assert annihilator(g, p) == [Cochain.basis(4, i) for i in range(4)]

    def test_affine_carrier(self, affine_entry):
        g = affine_entry.g
        anns = annihilator(g, affine_entry.subalgebra)
        assert anns == [
            Cochain.basis(6, g.index("e12")),
            Cochain.basis(6, g.index("e21")),
        ]

    def test_dimension_count(self, gl_algebras):
        g = gl_algebras[3]
        p = q_subalgebra(g, 3)
        assert len(annihilator(g, p)) + p.dim == g.dim

    def test_is_kernel_basis_of_the_carrier_rows(self):
        # the closed form read from the rref basis is the null space
        # kernel_basis computes by a fresh elimination
        g = LieAlgebra([f"x{i}" for i in range(6)], {})
        rng = random.Random(909)
        for _ in range(30):
            vectors = [
                [rng.choice([F(0), F(0), F(1), F(-2), Fraction(1, 3)]) for _ in range(6)]
                for _ in range(rng.randint(1, 5))
            ]
            p = span_subalgebra(g, vectors)
            expected = kernel_basis(Matrix(p.basis)) if p.dim else [
                g.basis_vector(i) for i in range(6)
            ]
            assert [c.to_vector() for c in annihilator(g, p)] == expected


# ---------------------------------------------------------------------------
# Matrix-route oracle: the representations themselves, as full matrices.
# The library computes only their characters, as traces; this route builds
# every action matrix, solves for each column, checks the homomorphism
# identity with matrix products and checks that the trace is a cocycle.


class RepresentationError(ValueError):
    """Matrices that do not define a Lie algebra homomorphism."""


class NotInvariantError(ValueError):
    """A subspace of the dual that is not stable under the coadjoint action."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__("subspace is not invariant under the coadjoint action")


class Representation:
    """A Lie algebra homomorphism into matrices, one per basis element."""

    def __init__(self, acting: Subalgebra, matrices):
        if len(matrices) != acting.dim:
            raise RepresentationError("need one matrix per basis element")
        self.acting = acting
        self.matrices = tuple(matrices)
        self.space_dim = matrices[0].rows if matrices else 0
        for m in self.matrices:
            if m.rows != self.space_dim or m.cols != self.space_dim:
                raise RepresentationError("matrices must be square of equal size")
        algebra = subalgebra_algebra(acting)
        for s, t in itertools.combinations(range(acting.dim), 2):
            expected = zeros(self.space_dim, self.space_dim)
            for k, c in algebra.bracket_basis(s, t).items():
                expected = mat_add(
                    expected, Matrix([[c * x for x in row] for row in entries(self.matrices[k])])
                )
            ms, mt = self.matrices[s], self.matrices[t]
            commutator = mat_sub(matmul(ms, mt), matmul(mt, ms))
            if commutator != expected:
                raise RepresentationError(
                    f"matrices fail the homomorphism identity at basis pair ({s}, {t})"
                )


def quotient_coords(p, v):
    """Coordinates of the class of v in the canonical complement basis."""
    residual = list(v)
    for pivot, b in zip(p.pivots, p.basis):
        c = residual[pivot]
        if c != 0:
            residual = [r - c * x for r, x in zip(residual, b)]
    return tuple(residual[q] for q in p.complement)


def quotient_rep(g, p) -> Representation:
    """Action X.cl(Y) = cl([X,Y]) on classes, in the canonical complement."""
    mats = []
    for b in p.basis:
        cols = [quotient_coords(p, dense_bracket(g, b, g.basis_vector(q))) for q in p.complement]
        mats.append(from_columns(cols) if p.complement else Matrix([]))
    return Representation(p, mats)


def coadjoint_subrep(g, p, subspace) -> Representation:
    """Coadjoint action <X.gamma, Y> = -<gamma, [X, Y]> on an invariant subspace."""
    covs = [c.to_vector() for c in subspace]
    if covs:
        span = from_columns(covs)
    mats = []
    for b in p.basis:
        cols = []
        for gamma in covs:
            image = tuple(
                -sum((c * x for c, x in zip(gamma, dense_bracket(g, b, g.basis_vector(j)))), F(0))
                for j in range(g.dim)
            )
            try:
                cols.append(solve(span, image).vector)
            except ValueError as exc:
                raise NotInvariantError((b, gamma, image)) from exc
        mats.append(from_columns(cols) if covs else Matrix([]))
    return Representation(p, mats)


def infinitesimal_character(rep: Representation) -> Cochain:
    """Trace of the representation; traces of commutators must vanish."""
    values = [mat_trace(m) for m in rep.matrices]
    algebra = subalgebra_algebra(rep.acting)
    for s, t in itertools.combinations(range(rep.acting.dim), 2):
        total = sum((c * values[k] for k, c in algebra.bracket_basis(s, t).items()), F(0))
        if total != 0:
            raise RepresentationError("character is not a cocycle; invalid representation")
    return Cochain.from_covector(values)


class TestRepresentations:
    """The matrix-route oracle's own checks."""

    def test_quotient_of_whole_algebra_is_trivial(self, gl_algebras):
        g = gl_algebras[2]
        rep = quotient_rep(g, whole_algebra(g))
        assert rep.space_dim == 0

    def test_abelian_quotient_rep_is_zero(self):
        g = LieAlgebra(["a", "b", "c"], {})
        p = span_subalgebra(g, [g.basis_vector(0)])
        rep = quotient_rep(g, p)
        assert all(mat_is_zero(m) for m in rep.matrices)

    def test_coadjoint_on_zero_subspace(self, gl_algebras):
        g = gl_algebras[2]
        p = span_subalgebra(g, [g.basis_vector(g.index("e12"))])
        rep = coadjoint_subrep(g, p, [])
        assert rep.space_dim == 0

    def test_coadjoint_duality_convention(self, affine_entry):
        # <X.gamma, Y> = -<gamma, [X, Y]> on the kernel subspace
        g = affine_entry.g
        p = affine_entry.subalgebra
        covs = annihilator(g, p)
        rep = coadjoint_subrep(g, p, covs)
        for s, b in enumerate(p.basis):
            for u, gamma in enumerate(covs):
                image = column(rep.matrices[s], u)
                recovered = [Fraction(0)] * g.dim
                for v, c in enumerate(image):
                    for k, cv in enumerate(covs[v].to_vector()):
                        recovered[k] += c * cv
                for j in range(g.dim):
                    lhs = recovered[j]
                    rhs = -gamma.evaluate(dense_bracket(g, b, g.basis_vector(j)))
                    assert lhs == rhs

    def test_not_invariant_rejected(self, gl_algebras):
        g = gl_algebras[2]
        p = span_subalgebra(g, [g.basis_vector(g.index("e12"))])
        with pytest.raises(NotInvariantError):
            coadjoint_subrep(g, p, [Cochain.basis(4, g.index("e12"))])

    def test_abelian_coadjoint_is_zero(self):
        g = LieAlgebra(["a", "b", "c"], {})
        p = span_subalgebra(g, [g.basis_vector(0), g.basis_vector(1)])
        rep = coadjoint_subrep(g, p, annihilator(g, p))
        assert all(mat_is_zero(m) for m in rep.matrices)

    def test_homomorphism_check_rejects_garbage(self, gl_algebras):
        g = gl_algebras[2]
        p = span_subalgebra(
            g, [g.basis_vector(g.index("e11")), g.basis_vector(g.index("e12"))]
        )
        bad = [Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]])]
        with pytest.raises(RepresentationError):
            Representation(p, bad)


class TestCharacters:
    def test_affine_quotient_character_vanishes(self, affine_entry):
        assert quotient_character(affine_entry.g, affine_entry.subalgebra).is_zero()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_q_family_quotient_character(self, n, q_entries):
        entry = q_entries[n]
        g = entry.g
        p = entry.subalgebra
        chi = quotient_character(g, p)
        expected = {}
        for s, b in enumerate(p.basis):
            val = -sum((b[g.index(f"e{i}{i}")] for i in range(1, n)), F(0))
            if val:
                expected[(s,)] = val
        assert chi.terms == expected

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_parabolic_character_on_sl(self, n, gg_entries):
        # character of the quotient action evaluates to -(n-1) on e11*-type
        # diagonal combinations: on h1 it gives -n, on later hk it gives 0
        entry = gg_entries[n]
        g, p = entry.g, entry.subalgebra
        chi = quotient_character(g, p)
        chi_vec = chi.to_vector()
        h1 = p.coords_of({g.index("h1"): F(1)})
        assert sum((c * chi_vec[s] for s, c in h1.items()), F(0)) == -n
        for k in range(2, n):
            hk = p.coords_of({g.index(f"h{k}"): F(1)})
            assert sum((c * chi_vec[s] for s, c in hk.items()), F(0)) == 0

    def test_duality_of_characters(self, affine_entry, gl_algebras):
        # the quotient action and the coadjoint action on the annihilator
        # carry opposite characters
        cases = [
            (affine_entry.g, affine_entry.subalgebra),
            (gl_algebras[3], q_subalgebra(gl_algebras[3], 3)),
        ]
        g2 = gl_algebras[2]
        cases.append(
            (
                g2,
                span_subalgebra(
                    g2,
                    [
                        g2.basis_vector(g2.index("e12")),
                        tuple(
                            F(1) if lab == "e11" else F(-1) if lab == "e22" else F(0)
                            for lab in g2.labels
                        ),
                    ],
                ),
            )
        )
        for g, p in cases:
            chi_q = quotient_character(g, p)
            chi_c = coadjoint_character(g, p, annihilator(g, p))
            assert chi_q == -1 * chi_c

    def test_coadjoint_requires_canonical_annihilator(self, affine_entry):
        g, p = affine_entry.g, affine_entry.subalgebra
        ann = annihilator(g, p)
        swapped = [ann[1], ann[0]]
        scaled = [2 * ann[0], ann[1]]
        for bad in (swapped, scaled, ann[:1]):
            with pytest.raises(ValueError, match="canonical annihilator"):
                coadjoint_character(g, p, bad)


class TestCharactersAgainstOracle:
    """Both trace characters equal the traces of the oracle's matrices."""

    @staticmethod
    def assert_matches_oracle(g, p):
        ann = annihilator(g, p)
        assert quotient_character(g, p) == infinitesimal_character(quotient_rep(g, p))
        assert coadjoint_character(g, p, ann) == infinitesimal_character(
            coadjoint_subrep(g, p, ann)
        )

    def test_affine(self, affine_entry):
        self.assert_matches_oracle(affine_entry.g, affine_entry.subalgebra)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_q_family(self, n, q_entries):
        self.assert_matches_oracle(q_entries[n].g, q_entries[n].subalgebra)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_gg_family(self, n, gg_entries):
        self.assert_matches_oracle(gg_entries[n].g, gg_entries[n].subalgebra)

    def test_seeded_linearization_carriers(self):
        rng = random.Random(303)
        for _ in range(20):
            g, p, _ = make_random_linearize_input(rng)
            self.assert_matches_oracle(g, p)

    def test_non_unit_rows(self):
        # the catalog carriers have unit rows, so each canonical annihilator
        # covector is a unit covector; conjugated coordinate spans of gl(3)
        # give covectors with other entries at the pivots, here also in the
        # rescaled gl(3) (D = 6)
        from test_twisted import GL3_SCALES, gl3_rescaled

        base, rescaled = gl(3), gl3_rescaled()
        rng = random.Random(306)
        pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
        entries_seen = set()
        for coords in (["e11", "e12"], ["e11", "e22", "e12", "e13"], ["e11", "e12", "e22"]):
            moves = [(a, b, rng.choice([-2, 2])) for a, b in rng.sample(pairs, 2)]
            span = _conjugated_span(base, 3, [base.index(c) for c in coords], moves)
            scaled = [tuple(x / sk for x, sk in zip(v, GL3_SCALES)) for v in span]
            for g, vectors in ((base, span), (rescaled, scaled)):
                p = span_subalgebra(g, vectors)
                entries_seen.update(c for gamma in annihilator(g, p) for c in gamma.terms.values())
                self.assert_matches_oracle(g, p)
        assert entries_seen - {0, 1}

    def test_zero_bivector_carrier(self, gl_algebras):
        # r = 0: the carrier is the zero subalgebra and the kernel is everything
        g = gl_algebras[3]
        self.assert_matches_oracle(g, span_subalgebra(g, []))
        self.assert_matches_oracle(g, whole_algebra(g))


class TestTraceAdjoint:
    def test_abelian(self):
        g = LieAlgebra(["a", "b"], {})
        assert trace_adjoint(g).is_zero()

    def test_two_dim_solvable(self):
        g = LieAlgebra(["x", "y"], {(0, 1): {1: 1}})
        assert trace_adjoint(g) == Cochain.basis(2, 0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_gl_is_unimodular(self, n, gl_algebras):
        assert trace_adjoint(gl_algebras[n]).is_zero()

    def test_matches_ad_matrix_traces(self, gl_algebras):
        for g in (gl_algebras[2], solvable4(), affine_algebra()):
            ta = trace_adjoint(g).to_vector()
            for m in range(g.dim):
                assert ta[m] == mat_trace(ad_matrix(g, g.basis_vector(m)))


class TestTraceAlongRows:
    """``trace_adjoint`` of a subalgebra, traced along its rows, against the
    trace read off its own table (``trace_by_table``)."""

    def test_affine(self, affine_entry):
        for p in (affine_entry.subalgebra, carrier_and_kernel(affine_entry.structure)[0]):
            assert trace_adjoint(p) == trace_by_table(p)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_catalog_carriers(self, n, q_entries, gg_entries):
        for entry in (q_entries[n], gg_entries[n]):
            carrier, _ = carrier_and_kernel(entry.structure)
            assert trace_adjoint(carrier) == trace_by_table(carrier)

    def test_seeded_linearizations(self):
        rng = random.Random(304)
        for _ in range(12):
            carrier, _ = carrier_and_kernel(linearize(*make_random_linearize_input(rng)))
            assert trace_adjoint(carrier) == trace_by_table(carrier)

    def test_non_unit_rows(self):
        # the catalog carriers have unit rows; linearizations on coordinate
        # spans of gl(3) conjugated by I + t e_ab give carriers whose rref
        # rows have entries other than 0 and 1
        g = gl(3)
        rng = random.Random(305)
        pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
        traces = []
        for coords in (["e11", "e12"], ["e11", "e22", "e12", "e13"]):
            cases = 0
            while cases < 8:
                moves = [(a, b, rng.choice([-2, -1, 1, 2])) for a, b in rng.sample(pairs, 2)]
                p = span_subalgebra(g, _conjugated_span(g, 3, [g.index(c) for c in coords], moves))
                if all(c in (0, 1) for row in p.rows for c in row.values()):
                    continue
                try:
                    st_ = linearize(g, p, random_cochain(rng, g.dim, 2))
                except DegenerateFormError:
                    continue
                carrier, _ = carrier_and_kernel(st_)
                assert carrier.rows == p.rows
                traces.append(trace_adjoint(carrier))
                assert traces[-1] == trace_by_table(carrier)
                cases += 1
        assert not any(t.is_zero() for t in traces)

    def test_tables_with_scale_above_one(self, gg_entries):
        from test_twisted import GL3_SCALES, gl3_rescaled

        g = gl3_rescaled()
        dual = dual_lie_algebra(gg_entries[3].structure)
        assert g.integer_table().scale == 6 and dual.integer_table().scale == 3
        for h in (g, dual):
            assert trace_adjoint(h) == trace_by_table(h)
            assert trace_adjoint(whole_algebra(h)) == trace_by_table(h)
        # the rescaled algebra is gl(3) in the basis s_k e_k, so a span that
        # is closed in gl(3) is closed there once divided by the s_k
        base = gl(3)
        coords = [base.index(c) for c in ("e11", "e12", "e22")]
        span = _conjugated_span(base, 3, coords, [(0, 1, 2)])
        p = span_subalgebra(g, [tuple(x / sk for x, sk in zip(v, GL3_SCALES)) for v in span])
        assert trace_adjoint(p) == trace_by_table(p)
        assert not trace_adjoint(p).is_zero()
        # the kernel of gg(3) is an abelian ideal of the dual, so it traces to 0
        _, kernel = carrier_and_kernel(gg_entries[3].structure)
        ideal = span_subalgebra(dual, [k.to_vector() for k in kernel])
        assert trace_adjoint(ideal) == trace_by_table(ideal) == Cochain.zero(len(kernel), 1)

    def test_zero_subalgebra(self, gl_algebras):
        p = span_subalgebra(gl_algebras[3], [])
        assert trace_adjoint(p) == trace_by_table(p) == Cochain.zero(0, 1)

