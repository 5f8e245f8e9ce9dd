import itertools
from fractions import Fraction

import pytest

from modclass.catalog import affine_example, gg_example, gl, q_example
from modclass.liealg import Cochain, LieAlgebra, Multivector, span_subalgebra
from modclass.linalg import Matrix, rref


@pytest.fixture(scope="session")
def affine_entry():
    return affine_example()


@pytest.fixture(scope="session")
def q_entries():
    return {n: q_example(n) for n in (2, 3, 4, 5, 6)}


@pytest.fixture(scope="session")
def gg_entries():
    return {n: gg_example(n) for n in (2, 3, 4, 5, 6)}


@pytest.fixture(scope="session")
def gl_algebras():
    return {n: gl(n) for n in (2, 3, 4)}


def heisenberg():
    return LieAlgebra(["x", "y", "z"], {(0, 1): {2: 1}})


def solvable4():
    return LieAlgebra(
        ["a", "b", "c", "d"],
        {(0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 2}, (1, 2): {3: 1}},
    )


def random_cochain(rng, dim, degree, density=0.5, bound=4):
    terms = {}
    for idx in itertools.combinations(range(dim), degree):
        if rng.random() < density:
            c = rng.randint(-bound, bound)
            if c:
                terms[idx] = Fraction(c)
    return Cochain(dim, degree, terms)


def random_multivector(rng, dim, degree, density=0.5, bound=4):
    terms = {}
    for idx in itertools.combinations(range(dim), degree):
        if rng.random() < density:
            c = rng.randint(-bound, bound)
            if c:
                terms[idx] = Fraction(c)
    return Multivector(dim, degree, terms)


def first_rows_span(g, n, m):
    """Coordinates of the elementary matrices in the first m rows of gl(n)."""
    coords = []
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            coords.append(g.index(f"e{i}{j}"))
    return coords


def block_upper_span(g, n, blocks):
    """Coordinates of the block-upper-triangular span for a composition of n."""
    bounds = []
    start = 1
    for size in blocks:
        bounds.append((start, start + size - 1))
        start += size
    def block_of(i):
        for b, (lo, hi) in enumerate(bounds):
            if lo <= i <= hi:
                return b
        raise AssertionError
    coords = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if block_of(i) <= block_of(j):
                coords.append(g.index(f"e{i}{j}"))
    return coords


# even-dimensional bracket-closed coordinate spans of gl(3) and gl(4)
PARABOLIC_TYPE_SPANS = [
    (3, ("rows", 2)),
    (3, ("blocks", (1, 1, 1))),
    (4, ("rows", 1)),
    (4, ("rows", 2)),
    (4, ("rows", 3)),
    (4, ("blocks", (2, 2))),
    (4, ("blocks", (1, 1, 1, 1))),
]


def span_coords(g, n, shape):
    kind, arg = shape
    if kind == "rows":
        return first_rows_span(g, n, arg)
    return block_upper_span(g, n, arg)


def random_nondegenerate_mu(rng, g, coords, extra=2, bound=3):
    """A 2-cochain on g whose restriction to the coordinate span is non-degenerate.

    Built from a random perfect matching of the span coordinates plus noise
    terms; retried until the Gram matrix on the span has full rank.
    """
    dim = g.dim
    assert len(coords) % 2 == 0
    for _ in range(60):
        shuffled = list(coords)
        rng.shuffle(shuffled)
        terms = {}
        for a, b in zip(shuffled[::2], shuffled[1::2]):
            c = rng.choice([x for x in range(-bound, bound + 1) if x])
            idx = (a, b) if a < b else (b, a)
            terms[idx] = terms.get(idx, Fraction(0)) + (c if a < b else -c)
        for _ in range(extra):
            a, b = rng.sample(range(dim), 2)
            idx = (a, b) if a < b else (b, a)
            c = rng.randint(-bound, bound)
            if c:
                terms[idx] = terms.get(idx, Fraction(0)) + Fraction(c)
        mu = Cochain(dim, 2, terms)
        gram = Matrix(
            [[mu.coefficient(a, b) for b in coords] for a in coords]
        )
        if rref(gram).rank == len(coords):
            return mu
    raise AssertionError("failed to draw a non-degenerate form")


_CACHE: dict = {}


def make_random_linearize_input(rng):
    """A (g, subalgebra, mu) triple for the linearization theorem test."""
    n, shape = rng.choice(PARABOLIC_TYPE_SPANS)
    if n not in _CACHE:
        _CACHE[n] = gl(n)
    g = _CACHE[n]
    key = (n, shape)
    if key not in _CACHE:
        coords = span_coords(g, n, shape)
        _CACHE[key] = (
            coords,
            span_subalgebra(g, [g.basis_vector(c) for c in coords]),
        )
    coords, p = _CACHE[key]
    mu = random_nondegenerate_mu(rng, g, coords)
    return g, p, mu
