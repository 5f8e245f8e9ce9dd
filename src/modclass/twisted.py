"""Twisted triangular r-matrix structures and their modular classes.

A structure is a pair (r, psi) with r a bivector and psi a closed 3-cochain
satisfying the twisted classical Yang-Baxter equation.  The verification
compares the trivector

    T(r)(a, b, c) = <a, [r#b, r#c]> + <b, [r#c, r#a]> + <c, [r#a, r#b]>

against CYBE_SIGN * psi(r#a, r#b, r#c).  The global sign is a frozen
package constant, pinned by the catalog structures and covered by a
regression test; together with this package's differential orientation it
makes the linearization constructor, the Yang-Baxter check and the dual
Lie algebra mutually consistent.

With (d e*_m)(x, y) = e*_m([x, y]), the term <a, [r#b, r#c]> is
(d e*_a)(r#b, r#c), so T(r) = sum over m of e_m ^ r#^*(d e*_m) is a
pullback along r#, like the psi side.  ``verify_twisted_cybe`` sums both
in one integer loop over the sparse rows of r# (``_wedge_sum``): T(r) from
the by-output index of the table scaled by D (``LieAlgebra.integer_table``)
and -CYBE_SIGN times the pullback from the terms of psi, and builds the
residual as one Multivector.  T(r) alone is the residual against psi = 0,
and r#^*psi alone is ``pullback`` of psi along ``sharp_columns``.

That loop and the dual-bracket loop below follow the one rule of every
integer pass (see ``liealg``): they read the rows of L r#, with L the lcm
of r's denominators, every entry an int (``_scaled_rows``).  With P and D
the lcms of the denominators of psi and of the table (and V of the
vectors a pairing reads), every term is weighted onto the common
denominator, D P L^3 for the residual and D P V L^2 for the pairings, so
that every product lands in one int accumulator: zero sums cancel in ints
and only nonzero keys become Fractions.  A table or psi term that reads an
empty row of r# is skipped before any arithmetic.

The residual R = T(r) - CYBE_SIGN * r#^*psi is the defect of the dual
structure: r#[e_a*, e_b*]_r - [r#e_a*, r#e_b*] = -R(e_a*, e_b*, .), and
with d psi = 0 the dual bracket satisfies Jacobi exactly when R = 0.  So a
verified structure has both properties without a further check, and its
carrier p = im r# is a subalgebra: [r#a, r#b] = r#[a, b]_r.

The map r# is kept once, as sparse columns (``sharp_columns``), and no
dense matrix of it is built: the carrier is the row reduction of the
matrix whose rows are those columns, with no closure check when the
structure is verified and no table of the carrier on any path.  The
modular class is the image under r#, restricted to p, of the character of
p acting on g/p.  That character and the character of p acting on the
kernel ann(p) are traces (see ``liealg``) and must be opposite.  Every
stage works on sparse vectors; dense tuples appear only in results (the
representative, the relation residuals).

The dual bracket is read in one routine, ``_dual_brackets``, which pairs it
with given vectors on ints over the by-output index along the rows of r#:
at the unit vectors it is the dual table (``_dual_table``, read only by
``dual_lie_algebra``), at the representative the cocycle check of
``modular_class``.  Mod(dual) is a pullback along r# (``_dual_modular``).
"""

from __future__ import annotations

from itertools import chain
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .liealg import (
    Cochain,
    LieAlgebra,
    Multivector,
    Subalgebra,
    annihilator,
    ce_differential,
    coadjoint_character,
    lcm_den,
    pullback,
    quotient_character,
    trace_adjoint,
    transpose,
)
from .linalg import Matrix, SparseVec, Vector, dense, rref

#: Global sign relating T(r) to the pullback of psi, frozen once.
CYBE_SIGN = Fraction(-1)

class PsiNotClosedError(ValueError):
    """The twist candidate is not a cocycle."""

    def __init__(self, residual: Cochain):
        self.residual = residual
        super().__init__("psi is not closed: d psi != 0")


class InternalDisagreementError(AssertionError):
    """The kernel and quotient characters are not opposite; signals a convention bug."""


class StructureInvariantError(ValueError):
    """A structural invariant of a twisted triangular structure failed."""


def _sharp_columns(r: Multivector) -> list[dict[int, Fraction]]:
    """Images r#e_a* of the dual basis, as sparse vectors.

    Each term c e_i ^ e_j (i < j) of r puts c at row j of column i and -c
    at row i of column j; no other term touches those two cells.
    """
    cols: list[dict[int, Fraction]] = [{} for _ in range(r.dim)]
    for (i, j), c in r.terms.items():
        cols[i][j] = c
        cols[j][i] = -c
    return cols


def _scaled_rows(r: Multivector, fixed: int, power: int):
    """The rows of L r#, with L the lcm of r's denominators, and the
    weights of a pass over them whose terms read at most ``power`` rows.

    Row i of the r# matrix is the pullback of e*_i along r#; the matrix is
    skew, so row i is minus column i (``_sharp_columns``).  In L r# every
    entry is an int, kept as an (index, int) pair.  The pass sums over the
    common denominator Q = fixed * L^power, and over[k] = Q / L^k, so that
    a term n / d over k rows of r# is the numerator n * over[k] / d over Q
    when d divides fixed.
    """
    scale = lcm_den(r.terms.values())
    rows: list[list[tuple[int, int]]] = [[] for _ in range(r.dim)]
    for (i, j), c in r.terms.items():
        n = c.numerator * (scale // c.denominator)
        rows[i].append((j, -n))
        rows[j].append((i, n))
    over = [fixed * scale ** (power - k) for k in range(power + 1)]
    return rows, over


def _table_terms(g: LieAlgebra, rows, over):
    """The terms (n, us, vs, xs) of T(r) for ``_wedge_sum``: one term w
    e_m ^ row_i ^ row_j over D per (i, j, w) in ``by_output[m]``, since D
    d e*_m pulls back to the sum of w row_i ^ row_j.  A term with an empty
    row is skipped before any arithmetic."""
    view = g.integer_table()
    weight = over[2] // view.scale
    for m, terms in enumerate(view.by_output):
        e_m = ((m, 1),)
        for i, j, w in terms:
            if rows[i] and rows[j]:
                yield w * weight, e_m, rows[i], rows[j]


def _psi_terms(psi: Cochain, rows, over):
    """The terms (n, us, vs, xs) of -CYBE_SIGN * (pullback of psi) for
    ``_wedge_sum``: one term -CYBE_SIGN c row_i ^ row_j ^ row_k per term
    c e*_i ^ e*_j ^ e*_k.  A term with an empty row is skipped before any
    arithmetic."""
    sign = int(-CYBE_SIGN)
    for (i, j, k), c in psi.terms.items():
        if rows[i] and rows[j] and rows[k]:
            yield sign * c.numerator * (over[3] // c.denominator), rows[i], rows[j], rows[k]


def _wedge_sum(dim: int, q: int, terms) -> Multivector:
    """The sum of (n / q) u ^ v ^ x over the terms (n, us, vs, xs), whose
    sparse vectors u, v and x have int entries.

    Every product adds its numerator to one int accumulator, so a zero sum
    cancels in ints and only nonzero keys become Fractions; each index
    triple is sorted inline.
    """
    acc: dict[tuple[int, int, int], int] = {}
    for cn, us, vs, xs in terms:
        for a, an in us:
            for b, bn in vs:
                # sort (a, b) inline, then place d into the pair
                if a < b:
                    lo, hi, f = a, b, cn * an * bn
                elif b < a:
                    lo, hi, f = b, a, -cn * an * bn
                else:
                    continue
                for d, dn in xs:
                    if d < lo:
                        key, v = (d, lo, hi), f * dn
                    elif lo < d < hi:
                        key, v = (lo, d, hi), -f * dn
                    elif d > hi:
                        key, v = (lo, hi, d), f * dn
                    else:
                        continue
                    acc[key] = acc.get(key, 0) + v
    return Multivector(dim, 3, {key: Fraction(v, q) for key, v in acc.items() if v})


def _check_operands(g: LieAlgebra, r: Multivector, psi: Cochain) -> None:
    if r.degree != 2 or r.dim != g.dim:
        raise ValueError("r must be a bivector on the algebra")
    if psi.degree != 3 or psi.dim != g.dim:
        raise ValueError("psi must be a 3-cochain on the algebra")


@dataclass(frozen=True)
class CybeResult:
    passed: bool
    residual: Multivector


def _cybe_residual(g: LieAlgebra, r: Multivector, psi: Cochain) -> Multivector:
    """T(r) - CYBE_SIGN * (pullback of psi), summed in one pass.

    Both parts go through the same loop and one accumulator over D P L^3,
    so the residual is built as one Multivector and a zero residual
    cancels in ints.
    """
    _check_operands(g, r, psi)
    rows, over = _scaled_rows(r, g.integer_table().scale * lcm_den(psi.terms.values()), 3)
    terms = chain(_table_terms(g, rows, over), _psi_terms(psi, rows, over))
    return _wedge_sum(g.dim, over[0], terms)


def verify_twisted_cybe(g: LieAlgebra, r: Multivector, psi: Cochain) -> CybeResult:
    """Check closedness of psi, then the twisted Yang-Baxter equation.

    Raises PsiNotClosedError when d psi != 0; otherwise reports the
    trivector residual T(r) - CYBE_SIGN * (pullback of psi).
    """
    dpsi = ce_differential(g, psi)
    if not dpsi.is_zero():
        raise PsiNotClosedError(dpsi)
    residual = _cybe_residual(g, r, psi)
    return CybeResult(residual.is_zero(), residual)


class TwistedTriangularStructure:
    """A validated pair (r, psi) on a Lie algebra."""

    __slots__ = (
        "g",
        "r",
        "psi",
        "_sharp_cols",
        "_carrier",
        "_kernel",
        "_modular",
        "_verified",
    )

    def __init__(self, g: LieAlgebra, r: Multivector, psi: Cochain, *, check: bool = True):
        _check_operands(g, r, psi)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "_sharp_cols", None)
        object.__setattr__(self, "_carrier", None)
        object.__setattr__(self, "_kernel", None)
        object.__setattr__(self, "_modular", None)
        object.__setattr__(self, "_verified", False)
        if check:
            result = verify_twisted_cybe(g, r, psi)
            if not result.passed:
                raise StructureInvariantError(
                    "twisted Yang-Baxter equation fails; residual "
                    f"{result.residual!r}"
                )
            object.__setattr__(self, "_verified", True)

    def __setattr__(self, name, value):
        raise AttributeError("TwistedTriangularStructure is immutable")

    @classmethod
    def unchecked(cls, g: LieAlgebra, r: Multivector, psi: Cochain) -> "TwistedTriangularStructure":
        return cls(g, r, psi, check=False)

    def verify(self) -> CybeResult:
        result = verify_twisted_cybe(self.g, self.r, self.psi)
        if result.passed:
            object.__setattr__(self, "_verified", True)
        return result

    def ensure_verified(self) -> None:
        """Re-verify structures that were constructed unchecked.

        Public computations on a structure call this first, so negative-test
        constructions cannot silently flow into the modular-class machinery.
        """
        if self._verified:
            return
        result = self.verify()
        if not result.passed:
            raise StructureInvariantError(
                f"structure fails verification; residual {result.residual!r}"
            )

    def sharp_columns(self) -> list[dict[int, Fraction]]:
        """Images of the dual basis under r#, as sparse vectors."""
        if self._sharp_cols is None:
            object.__setattr__(self, "_sharp_cols", _sharp_columns(self.r))
        return self._sharp_cols

    def sharp_apply(self, alpha: Cochain | SparseVec) -> SparseVec:
        """r# of a 1-cochain or of a sparse covector, as a sparse vector."""
        if isinstance(alpha, Cochain):
            if alpha.degree != 1 or alpha.dim != self.g.dim:
                raise ValueError("expected a 1-cochain on the algebra")
            alpha = {a: c for (a,), c in alpha.terms.items()}
        cols = self.sharp_columns()
        out: SparseVec = {}
        for a, ca in alpha.items():
            for k, v in cols[a].items():
                out[k] = out.get(k, 0) + ca * v
        return {k: c for k, c in out.items() if c}


def _first_slot(psi: Cochain):
    """(i, (j, k), psi(e_i, e_j, e_k)) with j < k, for each term of psi and
    each of its three indices i."""
    for (p, q, s), c in psi.terms.items():
        yield p, (q, s), c
        yield q, (p, s), -c
        yield s, (p, q), c


def _dual_terms(g: LieAlgebra, psi: Cochain, at: list[SparseVec], rows, over):
    """The pairings <[e_a*, e_b*]_r, vectors[o]> as terms (o, n, us, xs),
    each n u ^ x over the common denominator at index o, for the rows us
    and xs of L r# (``_scaled_rows``) and ``at[t]`` mapping o to
    vectors[o][t].

    With x_a = r#e_a*, the pairing with v is -e_b*([x_a, v]) +
    e_a*([x_b, v]) + psi(v, x_a, x_b), read along the rows of r# (row i
    maps a to x_a[i]):

    * a term (i, j, w) of D d e*_m (``by_output``) gives D [x_a, v] the
      e_m-coefficient w (x_a[i] v[j] - x_a[j] v[i]);
    * psi(e_t, e_j, e_k) = c (``_first_slot``) gives c v_t (x_a[j] x_b[k]
      - x_a[k] x_b[j]).

    A term with an empty row is skipped before any arithmetic.
    """
    view = g.integer_table()
    # every table term weighs an entry of the vectors alike, so once
    sides = [
        [(o, y.numerator * (over[1] // (view.scale * y.denominator))) for o, y in v.items()]
        for v in at
    ]
    for m, terms in enumerate(view.by_output):
        e_m = ((m, 1),)
        for i, j, w in terms:
            for s, t, f in ((i, j, -w), (j, i, w)):
                if rows[s]:
                    for o, yn in sides[t]:
                        yield o, f * yn, rows[s], e_m
    for t, (j, k), c in _first_slot(psi):
        if rows[j] and rows[k]:
            for o, y in at[t].items():
                weight = over[2] // (c.denominator * y.denominator)
                yield o, c.numerator * y.numerator * weight, rows[j], rows[k]


def _dual_brackets(
    structure: TwistedTriangularStructure, vectors: Sequence[SparseVec]
) -> dict[tuple[int, int, int], Fraction]:
    """The nonzero pairings <[e_a*, e_b*]_r, vectors[o]>, at keys (a, b, o)
    with a < b, summed on ints over ``_dual_terms`` in one accumulator over
    D P V L^2, with V the lcm of the vectors' denominators."""
    g, psi = structure.g, structure.psi
    at = transpose(vectors, g.dim)
    fixed = g.integer_table().scale * lcm_den(psi.terms.values())
    rows, over = _scaled_rows(structure.r, fixed * lcm_den(y for v in at for y in v.values()), 2)
    acc: dict[tuple[int, int, int], int] = {}
    for o, cn, us, xs in _dual_terms(g, psi, at, rows, over):
        for a, an in us:
            for b, bn in xs:
                if a < b:
                    key, v = (a, b, o), cn * an * bn
                elif b < a:
                    key, v = (b, a, o), -cn * an * bn
                else:
                    continue
                acc[key] = acc.get(key, 0) + v
    return {key: Fraction(v, over[0]) for key, v in acc.items() if v}


def _dual_table(structure: TwistedTriangularStructure) -> dict[tuple[int, int], dict[int, Fraction]]:
    """Dual structure constants [e_a*, e_b*] for a < b: ``_dual_brackets``
    at the unit vectors, grouped by (a, b)."""
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    units = [{o: 1} for o in range(structure.g.dim)]
    for (a, b, o), c in sorted(_dual_brackets(structure, units).items()):
        table.setdefault((a, b), {})[o] = c
    return table


def dual_lie_algebra(structure: TwistedTriangularStructure, *, check: bool = False) -> LieAlgebra:
    """The Lie algebra on the dual space defined by the structure, built on
    each call.  Jacobi is guaranteed by the twisted Yang-Baxter equation;
    for an unchecked structure with a nonzero residual, ``check_jacobi()``
    of the result reports the failing triple, and ``check=True`` raises
    JacobiViolationError."""
    labels = tuple(f"{lab}*" for lab in structure.g.labels)
    return LieAlgebra(labels, _dual_table(structure), check=check)


def _dual_modular(structure: TwistedTriangularStructure) -> Cochain:
    """Mod(dual)(e_a*), the sum over b of <[e_a*, e_b*]_r, e_b>.

    With x_a = r#e_a* and sum over b of x_b (x) e_b = -r, it is
    -Mod(g)(x_a) + e_a*(v) + w(x_a) for v = -2 sum over i < j of
    r^ij [e_i, e_j] and w(y) = -2 sum over i < j of r^ij psi(y, e_i, e_j).
    """
    g, r = structure.g, structure.r
    v = (((k,), -2 * x * c) for ij, x in r.terms.items() for k, c in g.table.get(ij, {}).items())
    w = (((i,), -2 * c * r.terms[jk]) for i, jk, c in _first_slot(structure.psi) if jk in r.terms)
    pulled = pullback(Cochain(g.dim, 1, w) - trace_adjoint(g), structure.sharp_columns())
    return pulled + Cochain(g.dim, 1, v)


def carrier_and_kernel(
    structure: TwistedTriangularStructure,
) -> tuple[Subalgebra, list[Cochain]]:
    """The image subalgebra of r# and the canonical kernel basis.

    The image of r# is the span of its columns, so the nonzero rows of the
    rref of the matrix whose rows are the sparse r# columns are the
    canonical carrier basis.  On a verified structure the carrier is
    closed, since [r#a, r#b] = r#[a, b]_r once R = 0; an unverified one
    gets ``Subalgebra.check_closed``, which raises NotClosedError.  The
    kernel is ann(carrier), the kernel of r#; closure and r#k = 0 make it
    an abelian ideal of the dual Lie algebra, and ``modular_class`` checks
    r#k = 0.
    """
    if structure._carrier is not None:
        return structure._carrier, structure._kernel
    g = structure.g
    reduced, pivots, rank = rref(Matrix(structure.sharp_columns(), g.dim))
    carrier = Subalgebra(g, reduced.sparse_rows[:rank], pivots)
    if not structure._verified:
        carrier.check_closed()
    kernel = annihilator(g, carrier)
    object.__setattr__(structure, "_carrier", carrier)
    object.__setattr__(structure, "_kernel", kernel)
    return carrier, kernel


@dataclass(frozen=True)
class CrossCheck:
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ModularClassReport:
    carrier: Subalgebra
    kernel: list[Cochain]
    chi_kernel: Cochain
    chi_quotient: Cochain
    representative: Vector
    crosschecks: dict[str, CrossCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.crosschecks.values())


def modular_class(structure: TwistedTriangularStructure) -> ModularClassReport:
    """The modular class representative, from the two characters of the carrier.

    The carrier p acts on the kernel ann(p) by the coadjoint action and on
    g/p by the induced action.  The two actions are dual, so their
    characters, computed independently as traces, must be opposite; a
    mismatch is an InternalDisagreementError.  The representative is the
    image under r# of the quotient character, extended by zero on the
    canonical complement (``Subalgebra.extend_cochain_by_zero``).  It must lie
    in the carrier and be a 1-cocycle of the dual Lie algebra, and r# must
    vanish on the kernel, so that the image does not depend on the
    complement used to extend a character; each is a recorded crosscheck.
    The ``sharp_homomorphism`` crosscheck comes from ``ensure_verified``:
    r#[e_a*, e_b*]_r - [r#e_a*, r#e_b*] = -R(e_a*, e_b*, .), and the
    Yang-Baxter residual R is zero once that call returns.
    """
    if structure._modular is not None:
        return structure._modular
    structure.ensure_verified()
    g = structure.g
    carrier, kernel = carrier_and_kernel(structure)
    chi_kernel = coadjoint_character(g, carrier, kernel)
    chi_quotient = quotient_character(g, carrier)

    if chi_kernel != -chi_quotient:
        raise InternalDisagreementError(
            "kernel and quotient characters are not opposite: "
            f"{chi_kernel!r} vs {chi_quotient!r}"
        )
    checks: dict[str, CrossCheck] = {
        "routes_agree": CrossCheck(True, "kernel and quotient characters are opposite"),
        "extension_independent": CrossCheck(
            all(not structure.sharp_apply(k) for k in kernel),
            "r# vanishes on the kernel, so no choice of complement matters",
        ),
    }
    sparse_rep = structure.sharp_apply(carrier.extend_cochain_by_zero(chi_quotient))
    representative = dense(sparse_rep, g.dim)

    checks["representative_in_carrier"] = CrossCheck(
        carrier.coords_of(sparse_rep) is not None,
        "representative lies in the carrier",
    )

    checks["cocycle_on_dual"] = CrossCheck(
        not _dual_brackets(structure, [sparse_rep]),
        "representative annihilates the derived algebra of the dual",
    )

    checks["sharp_homomorphism"] = CrossCheck(
        True, "r# is a homomorphism from the dual algebra, since R = 0"
    )

    report = ModularClassReport(
        carrier=carrier,
        kernel=kernel,
        chi_kernel=chi_kernel,
        chi_quotient=chi_quotient,
        representative=representative,
        crosschecks=checks,
    )
    if not report.passed:
        failed = [k for k, v in checks.items() if not v.passed]
        raise StructureInvariantError(f"modular class crosschecks failed: {failed}")
    object.__setattr__(structure, "_modular", report)
    return report


@dataclass(frozen=True)
class RelationReport:
    """Exact residuals of the trace-level identities tying the classes together.

    modular_vs_relative: 2 theta - Mod(dual) + pullback of Mod(algebra)
    dual_vs_carrier:     Mod(dual) - pullback along restricted r# of (Mod p + theta_p)
    restriction_vs_carrier: restriction of Mod(algebra) - (Mod p - theta_p)
    """

    modular_vs_relative: Vector
    dual_vs_carrier: Vector
    restriction_vs_carrier: Vector

    @property
    def passed(self) -> bool:
        return all(
            all(x == 0 for x in residual)
            for residual in (
                self.modular_vs_relative,
                self.dual_vs_carrier,
                self.restriction_vs_carrier,
            )
        )


def relation_check(structure: TwistedTriangularStructure) -> RelationReport:
    """Verify the relative-modular-class identity and its two carrier-level halves."""
    structure.ensure_verified()
    g = structure.g
    carrier, _ = carrier_and_kernel(structure)
    report = modular_class(structure)
    cols = structure.sharp_columns()

    mod_g = trace_adjoint(g)
    mod_p = trace_adjoint(carrier)
    mod_dual = _dual_modular(structure)

    # (i) 2 theta = Mod(dual) - (r#)^* Mod(g)
    res1 = 2 * Cochain.from_covector(report.representative) - mod_dual + pullback(mod_g, cols)

    # (ii) Mod(dual) = (restricted r#)^* (Mod p + theta_p) with theta_p the
    # kernel character: the pullback along the carrier coordinates of the
    # r# images of dual basis covectors
    coords = [carrier.coords_of(col) for col in cols]
    if any(c is None for c in coords):
        raise StructureInvariantError("r# image left the carrier")
    res2 = mod_dual - pullback(mod_p + report.chi_kernel, coords)
    # (iii) restriction of Mod(g) to the carrier = Mod p - theta_p
    res3 = carrier.restrict_cochain(mod_g) - mod_p + report.chi_kernel
    return RelationReport(res1.to_vector(), res2.to_vector(), res3.to_vector())
