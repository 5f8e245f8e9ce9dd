"""The three workloads: seeded input generation, the timed call, the check.

Every workload is a list of items.  ``run_item`` makes only library calls
and is what the benchmark times; ``check_item`` runs after the pass,
untimed, and compares the output exactly against ground truth that the
benchmark derives from the construction of the input (closed forms from
the paper, exit codes fixed by how a file was built, the inverse-form
identity of the linearization), never from the output under test.

Why these workloads:

* ``catalog-n6`` builds ``q(6)`` (gl(6), dim 36) and ``gg(6)`` (sl(6),
  dim 35) from scratch and runs every stage on them.  The cost of exact
  arithmetic grows as a high power of the dimension, so the catalog's
  matrix-basis build, the eliminations, the dense products and the
  representation route show here first.
* ``verify-corpus`` runs ``modclass verify --format json`` in-process over
  a seeded corpus of catalog files, linearization outputs and negative
  files.  It exercises parsing, Jacobi, Yang-Baxter, the dual table and
  the CLI's error paths on many small and mid-sized inputs, and never
  builds a Representation or runs the catalog's matrix-basis build while
  timed: it is the bypass for those two layers.
* ``linearize-batch`` runs the linearization constructor, serializes and
  re-parses 200 seeded cases of dimension at most 16, the write-side twin
  of ``verify-corpus``.  A kernel change that wins at dimension 36 but
  loses on small eliminations shows here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

# Workload sizes.  The self-test runs the same code with TINY.
FULL = {
    "catalog": (("q", 6), ("gg", 6)),
    "corpus_catalog": (("affine", None),)
    + tuple(("q", n) for n in range(2, 6))
    + tuple(("gg", n) for n in range(2, 6)),
    # copies of each gl(3) and gl(4) span shape among the linearizations.
    # Weighted to gl(4) so that the median file is a gl(4) linearization:
    # with the shapes equally often, the median fell in the gap between
    # the small files and the mid-sized ones and item_p50_ms jumped by a
    # fifth between seeds.
    "corpus_shape_copies": {3: 1, 4: 6},
    "batch": 200,
}
TINY = {
    "catalog": (("q", 3), ("gg", 3)),
    "corpus_catalog": (("affine", None), ("q", 2), ("q", 3), ("gg", 3)),
    "corpus_shape_copies": {3: 1, 4: 1},
    "batch": 5,
}

# Passes a run makes at least, whatever --seconds says: one pass over the
# 51 files gave too few samples for a steady median.
MIN_PASSES = {"catalog-n6": 1, "verify-corpus": 2, "linearize-batch": 1}

# The percentile reported as item_tail_ms.  It is fixed per workload so that
# runs of different length compare like with like, and leaves at least ten
# samples beyond it in a run of MIN_PASSES passes.  For verify-corpus
# (102 samples) p90 is the highest such; for the 200 linearizations p95
# would be, but it moved with the few heaviest forms each seed draws, so
# p90 is used.  catalog-n6 has two items per pass, so its tail is the
# maximum.
TAIL_PERCENTILE = {"catalog-n6": 100, "verify-corpus": 90, "linearize-batch": 90}


@dataclass
class Workload:
    name: str
    items: list
    run_item: Callable
    check_item: Callable  # (item, output) -> None, or a reason it is wrong
    label: Callable  # item -> short name used in reports
    inputs: list = field(default_factory=list)  # canonical text of the inputs

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.inputs:
            h.update(text.encode())
            h.update(b"\0")
        return h.hexdigest()


def _label(i: int, j: int) -> str:
    # the catalog's basis labels: e_ij, with an underscore once n >= 10
    return f"e{i}{j}" if max(i, j) <= 9 else f"e{i}_{j}"


def expected_catalog(name: str, n: int | None) -> tuple[int, int, dict[str, Fraction]]:
    """(algebra dim, carrier dim, representative by label) from the closed forms.

    The plane-affine entry has a trivial class; gl(n) carries
    -(e_1n + ... + e_(n-1)n) on rows 1..n-1; the Jordanian sl(n) structure
    carries -(n-k) e_k,k+1 on its Frobenius parabolic.
    """
    if name == "affine":
        return 6, 4, {}
    if name == "q":
        rep = {_label(i, n): Fraction(-1) for i in range(1, n)}
        return n * n, (n - 1) * n, rep
    if name == "gg":
        rep = {_label(k, k + 1): Fraction(-(n - k)) for k in range(1, n)}
        return n * n - 1, n * n - n, rep
    raise ValueError(f"no closed form for catalog entry {name!r}")


def _vector(labels, by_label: dict[str, Fraction]) -> tuple[Fraction, ...]:
    unknown = set(by_label) - set(labels)
    if unknown:
        raise ValueError(f"labels {sorted(unknown)} are not in the basis")
    return tuple(by_label.get(lab, Fraction(0)) for lab in labels)


# ---------------------------------------------------------------------------
# catalog-n6


@dataclass
class CatalogItem:
    name: str
    n: int
    dim: int
    carrier_dim: int
    representative: dict[str, Fraction]


def catalog_workload(lib, rng, sizes, workdir) -> Workload:
    items = []
    for name, n in sizes["catalog"]:
        dim, carrier_dim, rep = expected_catalog(name, n)
        items.append(CatalogItem(name, n, dim, carrier_dim, rep))
    rng.shuffle(items)
    tw, frob = lib.twisted, lib.frobenius

    def run_item(item):
        entry = lib.catalog.get_entry(item.name, item.n)
        st = entry.structure
        g = st.g
        out = {"entry": entry}
        out["cybe"] = tw.verify_twisted_cybe(g, st.r, st.psi)
        out["carrier"], out["kernel"] = tw.carrier_and_kernel(st)
        tw.dual_lie_algebra(st, check=False)
        out["report"] = tw.modular_class(st)
        out["relations"] = tw.relation_check(st)
        out["mismatches"] = entry.check_expected()
        if entry.xi is not None:
            p = entry.subalgebra
            out["frobenius"] = frob.frobenius_modular(g, p, p.restrict_cochain(entry.xi))
        return out

    def check_item(item, out):
        entry = out["entry"]
        g = entry.g
        if g.dim != item.dim:
            return f"algebra dim {g.dim}, expected {item.dim}"
        expected = _vector(g.labels, item.representative)
        if not out["cybe"].passed:
            return "Yang-Baxter residual is nonzero"
        if out["carrier"].dim != item.carrier_dim:
            return f"carrier dim {out['carrier'].dim}, expected {item.carrier_dim}"
        if out["carrier"].basis != entry.subalgebra.basis:
            return "carrier span differs from the catalog subalgebra"
        if len(out["kernel"]) != item.dim - item.carrier_dim:
            return "kernel dim is not the codimension of the carrier"
        report = out["report"]
        if report.representative != expected:
            return "representative differs from the closed form"
        if not report.passed:
            return "a modular-class crosscheck failed"
        if not out["relations"].passed:
            return "a trace identity has a nonzero residual"
        if out["mismatches"]:
            return f"check_expected reports {out['mismatches']}"
        if entry.xi is not None and out["frobenius"] != expected:
            return "Frobenius route differs from the closed form"
        return None

    return Workload(
        "catalog-n6",
        items,
        run_item,
        check_item,
        lambda item: f"{item.name}{item.n}",
        [f"{i.name} {i.n}" for i in items],
    )


# ---------------------------------------------------------------------------
# The acceptance-criterion-6 generator: a random 2-cochain on gl(3) or gl(4)
# that is non-degenerate on an even-dimensional parabolic-type coordinate
# span, drawn as in the acceptance suite.  The span shapes are dealt from a
# shuffled deck holding each shape a fixed number of times rather than
# drawn independently, so that every seed has the same mix of gl(3) and
# gl(4) cases (their costs differ by a factor of five) and seeds differ in
# the forms, not in the amount of work.

_SPAN_SHAPES = (
    (3, ("rows", 2)),
    (3, ("blocks", (1, 1, 1))),
    (4, ("rows", 1)),
    (4, ("rows", 2)),
    (4, ("rows", 3)),
    (4, ("blocks", (2, 2))),
    (4, ("blocks", (1, 1, 1, 1))),
)


def _span_coords(g, n, shape) -> list[int]:
    kind, arg = shape
    if kind == "rows":
        return [g.index(_label(i, j)) for i in range(1, arg + 1) for j in range(1, n + 1)]
    block_of = {}
    start = 1
    for b, size in enumerate(arg):
        for i in range(start, start + size):
            block_of[i] = b
        start += size
    return [
        g.index(_label(i, j))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if block_of[i] <= block_of[j]
    ]


def _random_nondegenerate_mu(lib, rng, g, coords, extra=2, bound=3):
    linalg, liealg = lib.linalg, lib.liealg
    for _ in range(60):
        shuffled = list(coords)
        rng.shuffle(shuffled)
        terms = {}
        for a, b in zip(shuffled[::2], shuffled[1::2]):
            c = rng.choice([x for x in range(-bound, bound + 1) if x])
            idx = (a, b) if a < b else (b, a)
            terms[idx] = terms.get(idx, Fraction(0)) + (c if a < b else -c)
        for _ in range(extra):
            a, b = rng.sample(range(g.dim), 2)
            idx = (a, b) if a < b else (b, a)
            c = rng.randint(-bound, bound)
            if c:
                terms[idx] = terms.get(idx, Fraction(0)) + Fraction(c)
        mu = liealg.Cochain(g.dim, 2, terms)
        gram = linalg.Matrix([[mu.coefficient(a, b) for b in coords] for a in coords])
        if linalg.rref(gram).rank == len(coords):
            return mu
    raise RuntimeError("failed to draw a non-degenerate form")


class LinearizeInputs:
    """Draws (g, subalgebra, coords, mu) cases, building each gl(n) once."""

    def __init__(self, lib):
        self.lib = lib
        self._cache: dict = {}

    def draw(self, rng, count: int, copies: dict[int, int] | None = None):
        """``count`` cases; ``copies`` (gl size -> copies of each of its
        shapes) weights the deck, which otherwise holds every shape once."""
        deck = [s for s in _SPAN_SHAPES for _ in range((copies or {}).get(s[0], 1))]
        deck *= -(-count // len(deck))
        rng.shuffle(deck)
        return [self._draw(rng, n, shape) for n, shape in deck[:count]]

    def _draw(self, rng, n, shape):
        if n not in self._cache:
            self._cache[n] = self.lib.catalog.gl(n)
        g = self._cache[n]
        if (n, shape) not in self._cache:
            coords = _span_coords(g, n, shape)
            p = self.lib.liealg.span_subalgebra(g, [g.basis_vector(c) for c in coords])
            self._cache[(n, shape)] = (coords, p)
        coords, p = self._cache[(n, shape)]
        mu = _random_nondegenerate_mu(self.lib, rng, g, coords)
        return n, shape, g, p, coords, mu


def _terms_text(alt) -> str:
    return " ".join(f"{idx}:{c}" for idx, c in alt.sorted_terms())


# ---------------------------------------------------------------------------
# linearize-batch


@dataclass
class LinearizeItem:
    name: str
    g: object
    p: object
    coords: list[int]
    mu: object


def inverse_form_error(coords, r, mu) -> str | None:
    """Check mu(r#a, r#b) = r(a, b) on the span: R G = -I in span coordinates.

    R and G are the coefficient matrices of r and mu on the coordinate
    span; r must vanish off the span.
    """
    span = set(coords)
    if any(not span.issuperset(idx) for idx in r.terms):
        return "r has a term outside the subalgebra"
    R = [[r.coefficient(a, b) for b in coords] for a in coords]
    G = [[mu.coefficient(a, b) for b in coords] for a in coords]
    k = len(coords)
    for s in range(k):
        for t in range(k):
            value = sum((R[s][u] * G[u][t] for u in range(k)), Fraction(0))
            if value != (-1 if s == t else 0):
                return "r is not minus the inverse of the Gram matrix of mu"
    return None


def linearize_workload(lib, rng, sizes, workdir) -> Workload:
    cases = LinearizeInputs(lib).draw(rng, sizes["batch"])
    items, inputs = [], []
    for k, (n, shape, g, p, coords, mu) in enumerate(cases):
        items.append(LinearizeItem(f"lin{k}", g, p, coords, mu))
        inputs.append(f"gl{n} {shape} {_terms_text(mu)}")
    sf = lib.structfile

    def run_item(item):
        st = lib.frobenius.linearize(item.g, item.p, item.mu)
        text = sf.serialize(
            sf.StructureData(
                algebra=item.g,
                name=item.name,
                r=st.r,
                psi=st.psi,
                subalgebra_vectors=item.p.basis,
                mu=item.mu,
            )
        )
        return st, sf.parse(text)

    def check_item(item, out):
        st, data = out
        if data.algebra.table != item.g.table or data.algebra.labels != item.g.labels:
            return "the algebra does not round-trip"
        if data.r != st.r or data.psi != st.psi or data.mu != item.mu:
            return "r, psi or mu does not round-trip exactly"
        if data.subalgebra_vectors != item.p.basis:
            return "the subalgebra does not round-trip"
        return inverse_form_error(item.coords, st.r, item.mu)

    return Workload(
        "linearize-batch", items, run_item, check_item, lambda item: item.name, inputs
    )


# ---------------------------------------------------------------------------
# verify-corpus


@dataclass
class CorpusItem:
    path: str
    kind: str
    code: int
    fields: dict  # JSON keys the report must carry, with their values


_VERIFIED = {
    "status": "verified",
    "psi_closed": True,
    "yang_baxter": True,
    "sharp_homomorphism": True,
    "dual_jacobi": True,
}

_NONZERO = [Fraction(x) for x in (1, -1, 2, -2, 3)] + [Fraction(1, 2), Fraction(-3, 2)]


def _yb_failure(lib, rng, bases):
    """A valid structure with its twist rescaled by c != 1 (c = 0 drops it).

    The residual becomes (1 - c) times the Yang-Baxter trivector of r, which
    is nonzero for the plane-affine and gl(n >= 3) entries, whose twist is
    needed; psi stays closed.  Exit 1.
    """
    entry = rng.choice(bases)
    c = rng.choice([Fraction(0), Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2)])
    data = lib.structfile.from_catalog_entry(entry)
    psi = None if c == 0 else c * data.psi
    text = lib.structfile.serialize(
        lib.structfile.StructureData(algebra=data.algebra, name="yb", r=data.r, psi=psi)
    )
    return text, 1, {"status": "failed", "psi_closed": True, "yang_baxter": False}


def _dpsi_failure(rng):
    """A non-unimodular 4-dim algebra with psi = c b*^c*^d*, which is not closed.

    [a,b] = l1 b, [a,c] = l2 c, [a,d] = (l1+l2) d, [b,c] = m d satisfies
    Jacobi; b*^c*^d* is the contraction of the volume form by a, whose
    differential is a nonzero multiple of tr(ad_a) = 2 (l1 + l2).  Exit 1.
    """
    l1, l2 = rng.choice(_NONZERO), rng.choice(_NONZERO)
    while l1 + l2 == 0:
        l2 = rng.choice(_NONZERO)
    m, c, k = rng.choice(_NONZERO), rng.choice(_NONZERO), rng.choice(_NONZERO)
    text = (
        "name = dpsi\n[algebra]\ndim = 4\nlabels = a b c d\n"
        f"bracket a b = {l1} b\nbracket a c = {l2} c\n"
        f"bracket a d = {l1 + l2} d\nbracket b c = {m} d\n"
        f"[r]\nterm a b = {k}\n[psi]\nterm b c d = {c}\n"
    )
    return text, 1, {"status": "failed", "psi_closed": False}


def _jacobi_failure(rng):
    """[x,y] = p y, [x,z] = q z, [y,z] = s x: the Jacobiator is -s (p+q) x.

    With s != 0 and p + q != 0 the table is rejected at parse.  Exit 2.
    """
    p, q, s = rng.choice(_NONZERO), rng.choice(_NONZERO), rng.choice(_NONZERO)
    while p + q == 0:
        q = rng.choice(_NONZERO)
    text = (
        "name = jacobi\n[algebra]\nlabels = x y z\n"
        f"bracket x y = {p} y\nbracket x z = {q} z\nbracket y z = {s} x\n"
        "[r]\nterm x y = 1\n"
    )
    return text, 2, {"status": "malformed"}


def _syntax_failure(rng, texts):
    """A valid file broken in one way the format forbids.  Exit 2."""
    lines = rng.choice(texts).splitlines()
    kind = rng.randrange(4)
    terms = [i for i, line in enumerate(lines) if line.startswith("term ")]
    if kind == 0:  # a floating-point coefficient
        i = rng.choice(terms)
        lines[i] = lines[i].split("=")[0] + "= 0.5"
    elif kind == 1:  # an unknown section
        lines.insert(rng.randrange(1, len(lines) + 1), "[extra]")
    elif kind == 2:  # an unknown basis label
        i = rng.choice(terms)
        head, value = lines[i].split("=")
        words = head.split()
        words[1] = "nosuchlabel"
        lines[i] = " ".join(words) + " =" + value
    else:  # a declared dim that does not match the labels
        i = next(i for i, line in enumerate(lines) if line.startswith("dim = "))
        lines[i] = f"dim = {int(lines[i].split('=')[1]) + 1}"
    return "\n".join(lines) + "\n", 2, {"status": "malformed"}


def corpus_workload(lib, rng, sizes, workdir) -> Workload:
    sf = lib.structfile
    files: list[tuple[str, str, int, dict]] = []  # (kind, text, code, fields)
    yb_bases = []
    for name, n in sizes["corpus_catalog"]:
        entry = lib.catalog.get_entry(name, n)
        dim, carrier_dim, _ = expected_catalog(name, n)
        fields = dict(_VERIFIED, carrier_dim=carrier_dim, kernel_dim=dim - carrier_dim)
        files.append((f"{name}{n or ''}", sf.serialize(sf.from_catalog_entry(entry)), 0, fields))
        if name == "affine" or (name == "q" and n >= 3):
            yb_bases.append(entry)

    copies = sizes["corpus_shape_copies"]
    count = sum(copies[n] for n, _ in _SPAN_SHAPES)
    cases = LinearizeInputs(lib).draw(rng, count, copies)
    for k, (n, shape, g, p, coords, mu) in enumerate(cases):
        st = lib.frobenius.linearize(g, p, mu)
        text = sf.serialize(
            sf.StructureData(
                algebra=g, name=f"lin{k}", r=st.r, psi=st.psi,
                subalgebra_vectors=p.basis, mu=mu,
            )
        )
        fields = dict(_VERIFIED, carrier_dim=len(coords), kernel_dim=g.dim - len(coords))
        files.append((f"lin{k}", text, 0, fields))

    positives = [text for _, text, _, _ in files]
    makers = (
        ("yb", lambda: _yb_failure(lib, rng, yb_bases)),
        ("dpsi", lambda: _dpsi_failure(rng)),
        ("jacobi", lambda: _jacobi_failure(rng)),
        ("syntax", lambda: _syntax_failure(rng, positives)),
    )
    # about a fifth of the corpus is negative, every kind at least once
    for k in range(max(len(makers), len(files) // 4)):
        kind, make = makers[k % len(makers)]
        files.append((kind, *make()))
    rng.shuffle(files)

    os.makedirs(workdir, exist_ok=True)
    items, inputs = [], []
    for k, (kind, text, code, fields) in enumerate(files):
        path = os.path.join(workdir, f"{k:03d}-{kind}.lie")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        items.append(CorpusItem(path, kind, code, fields))
        inputs.append(f"{kind} {code} {json.dumps(fields, sort_keys=True)}\n{text}")

    def run_item(item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(["verify", item.path, "--format", "json"])
        return code, out.getvalue()

    def check_item(item, result):
        code, text = result
        if code != item.code:
            return f"exit code {code}, expected {item.code}"
        report = json.loads(text)
        for key, value in item.fields.items():
            if report.get(key) != value:
                return f"report has {key}={report.get(key)!r}, expected {value!r}"
        return None

    return Workload(
        "verify-corpus",
        items,
        run_item,
        check_item,
        lambda item: os.path.basename(item.path),
        inputs,
    )


WORKLOADS = {
    "catalog-n6": catalog_workload,
    "verify-corpus": corpus_workload,
    "linearize-batch": linearize_workload,
}
