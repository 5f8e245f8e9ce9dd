import itertools
import random
from fractions import Fraction

import pytest

from conftest import make_random_linearize_input, random_cochain
from modclass.catalog import gl, p1_subalgebra, sl
from modclass.frobenius import (
    DegenerateFormError,
    NotFrobeniusError,
    _gram,
    frobenius_modular,
    invert_cochain,
    linearize,
    mu_from_xi,
)
from modclass.liealg import (
    Cochain,
    LieAlgebra,
    Multivector,
    annihilator,
    ce_differential,
    coadjoint_character,
    quotient_character,
    span_subalgebra,
    whole_algebra,
)
from modclass.linalg import dense, invert
from oracles import (
    FrobeniusCheck,
    column,
    dense_bracket,
    entries,
    gram_by_coefficient,
    invert_bivector,
    is_frobenius,
    linearize_from_parts,
    r_sharp_matrix,
    subalgebra_algebra,
)
from modclass.twisted import (
    TwistedTriangularStructure,
    carrier_and_kernel,
    modular_class,
    verify_twisted_cybe,
)


def F(x):
    return Fraction(x)


def restricted_sharp(st, p, chi):
    """r# of a 1-cochain on p, extended by zero on the canonical
    complement, as a dense vector."""
    return dense(st.sharp_apply(p.extend_cochain_by_zero(chi)), st.g.dim)


def borel_sl2():
    g = sl(2)
    p = p1_subalgebra(g, 2)
    return g, p


class TestMuFromXi:
    def test_abelian_gives_zero(self):
        g = LieAlgebra(["a", "b"], {})
        p = whole_algebra(g)
        assert mu_from_xi(p, Cochain.basis(2, 0)).is_zero()

    def test_borel_value(self):
        g, p = borel_sl2()
        # canonical basis of the Borel: e12 then h1
        xi = p.restrict_cochain(Cochain.basis(g.dim, g.index("e12")))
        mu = mu_from_xi(p, xi)
        # mu(e12, h1) = xi([e12, h1]) = xi(-2 e12) = -2
        assert mu.coefficient(0, 1) == -2

    @pytest.mark.parametrize("n", [3, 4])
    def test_parabolic_form_nondegenerate(self, n, gg_entries):
        entry = gg_entries[n]
        p = entry.subalgebra
        xi = p.restrict_cochain(entry.xi)
        assert is_frobenius(p, xi).ok

    def test_evaluates_as_bracket_pairing(self):
        g, p = borel_sl2()
        rng = random.Random(41)
        algebra = subalgebra_algebra(p)
        for _ in range(10):
            xi = Cochain(p.dim, 1, {(s,): rng.randint(-3, 3) for s in range(p.dim)})
            mu = mu_from_xi(p, xi)
            for s, t in itertools.combinations(range(p.dim), 2):
                bracket = dense_bracket(
                    algebra,
                    tuple(F(1 if u == s else 0) for u in range(p.dim)),
                    tuple(F(1 if u == t else 0) for u in range(p.dim)),
                )
                assert mu.coefficient(s, t) == xi.evaluate(bracket)

    def test_matches_table_of_subalgebra(self, affine_entry, q_entries, gg_entries):
        # the pullback along the rows against the differential on the table
        # of p, on the catalog subalgebras and seeded linearization carriers;
        # test_liealg's closure property test has conjugated and rescaled spans
        rng = random.Random(42)
        subs = [affine_entry.subalgebra]
        subs += [e[n].subalgebra for n in (2, 3, 4, 5) for e in (q_entries, gg_entries)]
        subs += [carrier_and_kernel(linearize(*make_random_linearize_input(rng)))[0] for _ in range(12)]
        for p in subs:
            for _ in range(3):
                xi = random_cochain(rng, p.dim, 1)
                assert mu_from_xi(p, xi) == ce_differential(subalgebra_algebra(p), xi)

    def test_rejects_wrong_degree_or_dimension(self, affine_entry):
        p = affine_entry.subalgebra
        for xi in (Cochain.basis(p.dim + 1, 0), Cochain(p.dim, 2)):
            with pytest.raises(ValueError, match="expected a 1-cochain on the subalgebra"):
                mu_from_xi(p, xi)


class TestParentAlgebra:
    """p must lie in g.  An algebra of the same dimension with other labels
    or another table is refused; an equal algebra built twice passes."""

    def test_mixed_algebras_rejected(self):
        g = gl(2)
        p = span_subalgebra(g, [g.basis_vector(g.index(lab)) for lab in ("e11", "e12")])
        ann = annihilator(g, p)
        xi = Cochain.basis(2, 1)
        mu = Cochain(4, 2, {(0, 1): 1})
        h = LieAlgebra(list("xyzw"), {(0, 1): {1: 1}})
        for other in (h, LieAlgebra(g.labels, h.table), LieAlgebra(list("xyzw"), g.table)):
            for call in (
                lambda: quotient_character(other, p),
                lambda: coadjoint_character(other, p, ann),
                lambda: linearize(other, p, mu),
                lambda: frobenius_modular(other, p, xi),
            ):
                with pytest.raises(ValueError, match="does not lie in this algebra"):
                    call()
        twin = gl(2)
        assert quotient_character(twin, p) == quotient_character(g, p)
        assert coadjoint_character(twin, p, ann) == coadjoint_character(g, p, ann)
        assert linearize(twin, p, mu).r == linearize(g, p, mu).r
        assert frobenius_modular(twin, p, xi) == frobenius_modular(g, p, xi)


class TestIsFrobenius:
    def test_abelian_fails_with_witness(self):
        g = LieAlgebra(["a", "b"], {})
        p = whole_algebra(g)
        check = is_frobenius(p, Cochain.basis(2, 0))
        assert not check.ok
        assert check.kernel_witness is not None

    def test_borel_is_frobenius(self):
        g, p = borel_sl2()
        xi = p.restrict_cochain(Cochain.basis(g.dim, g.index("e12")))
        check = is_frobenius(p, xi)
        assert check.ok and bool(check)


def invert_cochain_by_wedges(p, mu):
    """Oracle: the bivector as a sum of Multivector wedges of carrier basis vectors."""
    coeff = entries(invert(_gram(p, mu)))
    basis = [Multivector(p.parent.dim, 1, {(i,): c for i, c in enumerate(b)}) for b in p.basis]
    out = Multivector.zero(p.parent.dim, 2)
    for s, t in itertools.combinations(range(p.dim), 2):
        out = out + -coeff[s][t] * basis[s].wedge(basis[t])
    return out


class TestGram:
    def test_matches_coefficient_oracle(self, affine_entry, q_entries, gg_entries):
        cases = [
            (e.subalgebra, e.subalgebra.restrict_cochain(e.mu))
            for e in (affine_entry, *q_entries.values())
        ]
        cases += [
            (e.subalgebra, mu_from_xi(e.subalgebra, e.subalgebra.restrict_cochain(e.xi)))
            for e in gg_entries.values()
        ]
        rng = random.Random(74)
        for _ in range(10):
            g, p, mu = make_random_linearize_input(rng)
            cases.append((p, p.restrict_cochain(mu)))
            cases.append((p, random_cochain(rng, p.dim, 2, bound=6)))
        for p, mu in cases:
            assert _gram(p, mu) == gram_by_coefficient(mu)

    def test_rejects_wrong_degree_or_dimension(self, affine_entry):
        p = affine_entry.subalgebra
        with pytest.raises(ValueError):
            _gram(p, Cochain.basis(p.dim, 0))
        with pytest.raises(ValueError):
            _gram(p, Cochain(p.dim + 1, 2, {(0, 1): 1}))


class TestInvertCochain:
    def test_matches_wedge_sum(self, affine_entry, q_entries):
        cases = [
            (e.subalgebra, e.subalgebra.restrict_cochain(e.mu))
            for e in (affine_entry, *q_entries.values())
        ]
        rng = random.Random(808)
        for _ in range(20):
            _, p, mu_g = make_random_linearize_input(rng)
            cases.append((p, p.restrict_cochain(mu_g)))
        # a carrier whose canonical basis is not made of unit vectors
        g = LieAlgebra(["a", "b", "c", "d"], {})
        p = span_subalgebra(g, [(1, 1, 0, 0), (0, Fraction(1, 3), 1, 2)])
        cases.append((p, Cochain(2, 2, {(0, 1): Fraction(-3, 2)})))
        for p, mu in cases:
            assert invert_cochain(p, mu) == invert_cochain_by_wedges(p, mu)

    def test_two_dim_standard_form(self):
        g = LieAlgebra(["a", "b"], {(0, 1): {1: 1}})
        p = whole_algebra(g)
        mu = Cochain(2, 2, {(0, 1): 1})
        r = invert_cochain(p, mu)
        assert r == Multivector(2, 2, {(0, 1): 1})

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_q_family_inverse_matches_printed(self, n, q_entries):
        entry = q_entries[n]
        p = entry.subalgebra
        r = invert_cochain(p, p.restrict_cochain(entry.mu))
        assert r == entry.printed_r

    def test_affine_inverse_matches_printed(self, affine_entry):
        p = affine_entry.subalgebra
        r = invert_cochain(p, p.restrict_cochain(affine_entry.mu))
        assert r == affine_entry.printed_r

    def test_inverse_relation_by_direct_evaluation(self, affine_entry):
        # mu(r#a, r#b) = r(a, b) for all dual basis covectors: the defining
        # property, checked without going through the Gram machinery
        g = affine_entry.g
        p = affine_entry.subalgebra
        mu_g = affine_entry.mu
        r = invert_cochain(p, p.restrict_cochain(mu_g))
        sharp = r_sharp_matrix(g, r)
        for a, b in itertools.combinations(range(g.dim), 2):
            lhs = mu_g.evaluate(column(sharp, a), column(sharp, b))
            rhs = r.coefficient(a, b)
            assert lhs == rhs

    def test_flat_composition_is_minus_identity(self):
        g, p = borel_sl2()
        xi = p.restrict_cochain(Cochain.basis(g.dim, g.index("e12")))
        mu = mu_from_xi(p, xi)
        r = invert_cochain(p, mu)
        st = TwistedTriangularStructure(g, r, Cochain.zero(g.dim, 3))
        for s in range(p.dim):
            flat = Cochain(
                p.dim, 1, {(t,): mu.coefficient(s, t) for t in range(p.dim)}
            )
            image = restricted_sharp(st, p, flat)
            assert image == tuple(-x for x in p.basis[s])

    def test_degenerate_rejected(self):
        g = LieAlgebra(["a", "b", "c"], {})
        p = whole_algebra(g)
        with pytest.raises(DegenerateFormError):
            invert_cochain(p, Cochain(3, 2, {(0, 1): 1}))

    def test_zero_subalgebra_rejected(self, gl_algebras):
        g = gl_algebras[2]
        p = span_subalgebra(g, [])
        with pytest.raises(DegenerateFormError):
            invert_cochain(p, Cochain(0, 2, {}))

    def test_round_trip_with_invert_bivector(self, q_entries, affine_entry):
        rng = random.Random(42)
        cases = [
            (affine_entry.subalgebra, affine_entry.mu),
            (q_entries[3].subalgebra, q_entries[3].mu),
        ]
        for p, mu_g in cases:
            mu = p.restrict_cochain(mu_g)
            r = invert_cochain(p, mu)
            assert invert_bivector(p, r) == mu
        # random non-degenerate forms on a catalog subalgebra
        p = q_entries[2].subalgebra
        for _ in range(10):
            terms = {}
            for idx in itertools.combinations(range(p.dim), 2):
                c = rng.randint(-4, 4)
                if c:
                    terms[idx] = F(c)
            mu = Cochain(p.dim, 2, terms)
            try:
                r = invert_cochain(p, mu)
            except DegenerateFormError:
                continue
            assert invert_bivector(p, r) == mu


class TestLinearize:
    def test_affine_reproduces_printed_pair(self, affine_entry):
        g = affine_entry.g
        st = linearize(g, affine_entry.subalgebra, affine_entry.mu)
        assert st.r == affine_entry.printed_r
        assert st.psi == affine_entry.printed_psi1

    @pytest.mark.parametrize("n", [2, 3])
    def test_q_family_reproduces_catalog(self, n, q_entries):
        entry = q_entries[n]
        st = linearize(entry.g, entry.subalgebra, entry.mu)
        assert st.r == entry.structure.r
        assert st.psi == entry.structure.psi

    def test_output_always_verifies(self):
        rng = random.Random(43)
        for _ in range(15):
            g, p, mu = make_random_linearize_input(rng)
            st = linearize(g, p, mu)  # constructor re-verifies
            assert verify_twisted_cybe(g, st.r, st.psi).passed
            carrier, _ = carrier_and_kernel(st)
            assert carrier.basis == p.basis

    def test_psi_is_minus_d_mu(self, affine_entry, q_entries):
        # linearize takes psi = d(-mu); the oracle negates d mu
        cases = [(affine_entry.g, affine_entry.subalgebra, affine_entry.mu)]
        cases += [(e.g, e.subalgebra, e.mu) for e in q_entries.values()]
        rng = random.Random(58)
        cases += [make_random_linearize_input(rng) for _ in range(20)]
        for g, p, mu in cases:
            assert linearize(g, p, mu).psi == -ce_differential(g, mu)

    def test_from_parts_entry_point(self, affine_entry):
        g = affine_entry.g
        p = affine_entry.subalgebra
        mu_p = p.restrict_cochain(affine_entry.mu)
        st = linearize_from_parts(g, p, mu_p, affine_entry.structure.psi)
        assert st.r == affine_entry.printed_r

    def test_from_parts_rejects_incompatible_twist(self, affine_entry):
        g = affine_entry.g
        p = affine_entry.subalgebra
        mu_p = p.restrict_cochain(affine_entry.mu)
        with pytest.raises(ValueError):
            linearize_from_parts(g, p, mu_p, Cochain.zero(g.dim, 3))

    def test_zero_subalgebra_is_degenerate(self, affine_entry):
        g = affine_entry.g
        with pytest.raises(DegenerateFormError):
            linearize(g, span_subalgebra(g, []), affine_entry.mu)


class TestFrobeniusModular:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_gg_family(self, n, gg_entries):
        entry = gg_entries[n]
        p = entry.subalgebra
        xi = p.restrict_cochain(entry.xi)
        x = frobenius_modular(entry.g, p, xi)
        assert x == entry.expected_representative

    def test_n2_special_case(self, gg_entries):
        entry = gg_entries[2]
        g = entry.g
        p = entry.subalgebra
        x = frobenius_modular(g, p, p.restrict_cochain(entry.xi))
        expected = [F(0)] * g.dim
        expected[g.index("e12")] = F(-1)
        assert x == tuple(expected)

    def test_zero_character_gives_zero(self):
        # carrier = whole algebra: the quotient action is trivial, so the
        # unique solution of the nonsingular system is zero
        g = sl(2)
        p = p1_subalgebra(g, 2)
        sub = subalgebra_algebra(p)
        g_borel = sub
        p_whole = whole_algebra(g_borel)
        xi = Cochain.basis(2, 0)
        assert is_frobenius(p_whole, xi).ok
        assert frobenius_modular(g_borel, p_whole, xi) == (F(0), F(0))

    def test_not_frobenius_rejected(self):
        g = LieAlgebra(["a", "b"], {})
        p = whole_algebra(g)
        with pytest.raises(NotFrobeniusError):
            frobenius_modular(g, p, Cochain.basis(2, 0))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_agrees_with_modular_class_route(self, n, gg_entries):
        # the linear solve, the restricted r# of the inverse bivector applied
        # to the quotient character, and the full modular class of the
        # structure (r, 0) give the same representative
        entry = gg_entries[n]
        g = entry.g
        p = entry.subalgebra
        xi = p.restrict_cochain(entry.xi)
        x = frobenius_modular(g, p, xi)
        r = invert_cochain(p, mu_from_xi(p, xi))
        st = TwistedTriangularStructure(g, r, Cochain.zero(g.dim, 3))
        assert restricted_sharp(st, p, quotient_character(g, p)) == x
        assert modular_class(st).representative == x

    def test_zero_subalgebra_is_not_frobenius(self, gl_algebras):
        g = gl_algebras[2]
        p = span_subalgebra(g, [])
        xi = Cochain.zero(0, 1)
        assert is_frobenius(p, xi) == FrobeniusCheck(False)
        with pytest.raises(NotFrobeniusError, match="empty form") as info:
            frobenius_modular(g, p, xi)
        assert info.value.witness is None


class TestNonDegenerateCorrespondence:
    def test_bivector_cochain_bijection_on_whole_algebra(self):
        # when the carrier is everything, inverting a bivector and inverting
        # a 2-cochain are mutually inverse; the Borel of sl(2) as its own
        # algebra is the smallest non-degenerate instance
        g = subalgebra_algebra(p1_subalgebra(sl(2), 2))
        p = whole_algebra(g)
        import itertools as it
        import random as rnd

        rng = rnd.Random(51)
        for _ in range(10):
            terms = {
                idx: F(rng.randint(-4, 4))
                for idx in it.combinations(range(g.dim), 2)
            }
            r = Multivector(g.dim, 2, terms)
            try:
                mu = invert_bivector(p, r)
            except DegenerateFormError:
                continue
            assert invert_cochain(p, mu) == r

    def test_isomorphism_criterion_matches_is_frobenius(self):
        # X -> ad*_X xi is an isomorphism exactly when the induced 2-form is
        # non-degenerate: the linear solve succeeds iff is_frobenius says so
        g = sl(2)
        p = p1_subalgebra(g, 2)
        good = p.restrict_cochain(Cochain.basis(g.dim, g.index("e12")))
        bad = p.restrict_cochain(Cochain.basis(g.dim, g.index("h1")))
        assert is_frobenius(p, good).ok
        assert frobenius_modular(g, p, good) is not None
        assert not is_frobenius(p, bad).ok
        with pytest.raises(NotFrobeniusError):
            frobenius_modular(g, p, bad)
