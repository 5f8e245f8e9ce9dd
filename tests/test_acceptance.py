"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Every comparison is exact; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from conftest import make_random_linearize_input, random_cochain
from modclass.catalog import gl, q_example, sl
from modclass.cli import main
from modclass.frobenius import frobenius_modular, linearize
from modclass.liealg import Multivector, ce_differential
from modclass.linalg import kernel_basis
from modclass.structfile import from_catalog_entry, serialize
from modclass.twisted import (
    TwistedTriangularStructure,
    carrier_and_kernel,
    dual_lie_algebra,
    modular_class,
    relation_check,
    verify_twisted_cybe,
)
from oracles import r_sharp_matrix, sharp_homomorphism_residuals


def F(x):
    return Fraction(x)


def _verdict(number: int, description: str, passed: bool):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"acceptance criterion {number} failed: {description}"


def test_criterion_1_affine_modular_class(affine_entry):
    g = affine_entry.g
    report = modular_class(affine_entry.structure)
    expected_span = [
        g.basis_vector(g.index(lab)) for lab in ("e11", "e13", "e22", "e23")
    ]
    ok = (
        report.carrier.basis == tuple(expected_span)
        and report.chi_quotient.is_zero()
        and report.representative == (F(0),) * 6
        and report.passed
    )
    _verdict(1, "plane-affine entry: carrier span, vanishing character, zero class", ok)


def test_criterion_2_affine_coboundary_term_for_term(affine_entry):
    g = affine_entry.g
    recomputed = ce_differential(g, -1 * affine_entry.mu)
    ok = recomputed == affine_entry.printed_psi1
    ok = ok and sorted(recomputed.terms) == sorted(affine_entry.printed_psi1.terms)
    _verdict(2, "coboundary of -mu reproduces the closed-form twist term for term", ok)


def test_criterion_3_q_family(q_entries):
    ok = True
    elapsed_n5 = None
    for n in (3, 4, 5):
        start = time.monotonic()
        entry = q_example(n)  # fresh build so the timing below is honest
        g = entry.g
        expected = [F(0)] * g.dim
        for i in range(1, n):
            expected[g.index(f"e{i}{n}")] = F(-1)
        report = modular_class(entry.structure)
        ok = ok and entry.structure.verify().passed
        ok = ok and report.representative == tuple(expected)
        ok = ok and report.carrier.basis == entry.subalgebra.basis
        if n == 5:
            elapsed_n5 = time.monotonic() - start
    ok = ok and elapsed_n5 is not None and elapsed_n5 < 10.0
    _verdict(
        3,
        f"gl(n) family n=3,4,5: representative, carrier, verification "
        f"(n=5 took {elapsed_n5:.2f}s < 10s)",
        ok,
    )


def test_criterion_4_gg_family(gg_entries):
    ok = True
    for n in (2, 3, 4, 5):
        entry = gg_entries[n]
        g, p = entry.g, entry.subalgebra
        expected = [F(0)] * g.dim
        for k in range(1, n):
            expected[g.index(f"e{k}{k + 1}")] = F(-(n - k))
        ok = ok and entry.structure.verify().passed
        ok = ok and modular_class(entry.structure).representative == tuple(expected)
        xi = p.restrict_cochain(entry.xi)
        ok = ok and frobenius_modular(g, p, xi) == tuple(expected)
    _verdict(4, "sl(n) Jordanian family n=2..5: both solvers give -(n-k) e_k,k+1", ok)


def test_criterion_5_relation_suite(affine_entry, q_entries, gg_entries):
    entries = [affine_entry] + [q_entries[n] for n in (2, 3, 4, 5)] + [
        gg_entries[n] for n in (2, 3, 4, 5)
    ]
    ok = True
    for entry in entries:
        rel = relation_check(entry.structure)
        ok = ok and rel.passed
    _verdict(5, "trace identities have zero residual on all nine catalog entries", ok)


def test_criterion_6_randomized_linearization():
    rng = random.Random(2026)
    ok = True
    for _ in range(200):
        g, p, mu = make_random_linearize_input(rng)
        try:
            st = linearize(g, p, mu)
        except Exception:
            ok = False
            break
        result = verify_twisted_cybe(g, st.r, st.psi)
        ok = ok and result.passed
        if not ok:
            break
    _verdict(6, "200 randomized linearization inputs all satisfy Yang-Baxter", ok)


def test_criterion_7_property_suites(affine_entry, q_entries, gg_entries):
    ok = True

    # d compose d = 0 on 500 random cochains
    rng = random.Random(515)
    algebras = [affine_entry.g, gl(2), gl(3), sl(2), sl(3)]
    count = 0
    while count < 500:
        g = rng.choice(algebras)
        degree = rng.randrange(0, min(g.dim, 5))
        c = random_cochain(rng, g.dim, degree, density=0.4)
        ok = ok and ce_differential(g, ce_differential(g, c)).is_zero()
        count += 1
    dd_ok = ok

    # dual-algebra Jacobi tracks the Yang-Baxter check on 50 seeded
    # perturbations (bases chosen so the defect is generically non-invariant)
    bases = [
        affine_entry.structure,
        q_entries[2].structure,
        q_entries[3].structure,
    ]
    rng = random.Random(77)
    both_ways = {True: 0, False: 0}
    for _ in range(50):
        st = rng.choice(bases)
        g = st.g
        kind = rng.randrange(3)
        r, psi = st.r, st.psi
        if kind == 0:
            a, b = sorted(rng.sample(range(g.dim), 2))
            r = r + Multivector(g.dim, 2, {(a, b): F(rng.choice([-2, -1, 1, 2]))})
        elif kind == 1:
            psi = psi + ce_differential(
                g, random_cochain(rng, g.dim, 2, density=0.3, bound=2)
            )
        else:
            psi = F(rng.choice([2, 3, -1])) * psi
        verified = verify_twisted_cybe(g, r, psi).passed
        jac = dual_lie_algebra(TwistedTriangularStructure.unchecked(g, r, psi)).check_jacobi()
        ok = ok and (verified == jac.ok)
        both_ways[verified] += 1
    equivalence_ok = ok and both_ways[True] > 0 and both_ways[False] > 0

    # sharp homomorphism, ann(carrier) = null space of r#, and two-route
    # agreement on every catalog structure
    entries = [affine_entry] + [q_entries[n] for n in (2, 3)] + [
        gg_entries[n] for n in (2, 3)
    ]
    for entry in entries:
        st = entry.structure
        ok = ok and sharp_homomorphism_residuals(st) is None
        carrier, kernel = carrier_and_kernel(st)
        ok = ok and [k.to_vector() for k in kernel] == kernel_basis(r_sharp_matrix(st.g, st.r))
        report = modular_class(st)
        ok = ok and report.crosschecks["routes_agree"].passed
        ok = ok and report.crosschecks["cocycle_on_dual"].passed

    _verdict(
        7,
        "property suites: d^2=0 (500 cochains), Jacobi<->Yang-Baxter "
        f"(50 trials, {both_ways[False]} broken), homomorphism, kernel, two routes",
        ok and dd_ok and equivalence_ok,
    )


def test_criterion_8_negative_paths(tmp_path, capsys, affine_entry):
    violator = tmp_path / "violator.lie"
    violator.write_text(
        "[algebra]\nlabels = x y z\n"
        "bracket x y = y\nbracket x z = z\nbracket y z = x\n",
        encoding="utf-8",
    )
    code_violator = main(["verify", str(violator)])

    stripped = tmp_path / "affine_untwisted.lie"
    data = from_catalog_entry(affine_entry)
    stripped.write_text(
        serialize(
            type(data)(
                algebra=data.algebra,
                name=data.name,
                r=data.r,
                psi=None,
                subalgebra_vectors=data.subalgebra_vectors,
                mu=data.mu,
            )
        ),
        encoding="utf-8",
    )
    code_untwisted = main(["verify", str(stripped)])
    out = capsys.readouterr().out
    residual_shown = "residual" in out and "e11^e13^e23" in out

    ok = code_violator == 2 and code_untwisted == 1 and residual_shown
    with capsys.disabled():
        _verdict(
            8,
            "Jacobi violator exits 2 at parse; untwisted affine pair exits 1 "
            "with a nonzero residual trivector",
            ok,
        )
