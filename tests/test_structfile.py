import random
import sys
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import make_random_linearize_input
from hypothesis import given, settings, strategies as st

from modclass import structfile
from modclass.catalog import affine_example, gg_example, q_example
from modclass.frobenius import linearize
from modclass.liealg import Cochain, LieAlgebra
from modclass.structfile import (
    StructureData,
    StructureFileError,
    from_catalog_entry,
    parse,
    serialize,
)

MINIMAL = """
# a two-dimensional solvable algebra
name = halfplane
[algebra]
dim = 2
labels = x y
bracket x y = y
[r]
term x y = 1
"""


class TestParse:
    def test_minimal(self):
        data = parse(MINIMAL)
        assert data.name == "halfplane"
        assert data.algebra.labels == ("x", "y")
        assert data.r.terms == {(0, 1): Fraction(1)}
        assert data.psi is None and data.mu is None and data.xi is None

    def test_comments_and_blank_lines_ignored(self):
        data = parse("[algebra]\n\n# comment\nlabels = a b  # trailing\n")
        assert data.algebra.dim == 2

    def test_rational_coefficients(self):
        data = parse(
            "[algebra]\nlabels = a b c\nbracket a b = -5/3 c\n[xi]\nterm c = 7/2\n"
        )
        assert data.algebra.table == {(0, 1): {2: Fraction(-5, 3)}}
        assert data.xi.terms == {(2,): Fraction(7, 2)}

    def test_combination_parsing(self):
        data = parse(
            "[algebra]\nlabels = a b c\n[subalgebra]\nvector = a - 2 b + 1/3 c\nvector = 0\n"
        )
        assert data.subalgebra_vectors == (
            (Fraction(1), Fraction(-2), Fraction(1, 3)),
            (Fraction(0), Fraction(0), Fraction(0)),
        )

    def test_jacobi_violation_is_parse_error(self):
        text = (
            "[algebra]\nlabels = x y z\n"
            "bracket x y = y\nbracket x z = z\nbracket y z = x\n"
        )
        with pytest.raises(StructureFileError, match="Jacobi"):
            parse(text)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,match",
        [
            ("[orbit]\n", "unknown section"),
            ("[algebra]\nlabels = a b\nspin a b = 1\n", "unknown"),
            ("[algebra]\nlabels = a a\n", "duplicate label"),
            ("[algebra]\nlabels = a 2\n", "ambiguous"),
            ("[algebra]\nlabels = a b\nbracket b a = a\n", "earlier basis label"),
            ("[algebra]\nlabels = a b\nbracket a b = q\n", "unknown basis label"),
            ("[algebra]\nlabels = a b\nbracket a b = 1.5 a\n", "unknown basis label"),
            ("[algebra]\ndim = 3\nlabels = a b\n", "does not match"),
            ("[r]\nterm a b = 1\n", "must come first"),
            ("[algebra]\nlabels = a b\n[r]\nterm b a = 1\n", "strictly increasing"),
            ("[algebra]\nlabels = a b\n[r]\nterm a b = 1\nterm a b = 2\n", "duplicate term"),
            ("[algebra]\nlabels = a b\n[xi]\nterm a b = 1\n", "exactly 1"),
            ("[algebra]\nlabels = a b\n[algebra]\n", "duplicate section"),
            ("[algebra]\nlabels = a b\nbracket a b = 2 + a\n", "misplaced sign|without a basis label"),
            ("no equals sign", "expected"),
        ],
    )
    def test_rejections(self, text, match):
        with pytest.raises(StructureFileError, match=match):
            parse(text)

    def test_missing_algebra(self):
        with pytest.raises(StructureFileError, match="missing \\[algebra\\]"):
            parse("name = x\n")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "maker", [affine_example, lambda: q_example(3), lambda: gg_example(3)]
    )
    def test_catalog_entries(self, maker):
        data = from_catalog_entry(maker())
        text = serialize(data)
        back = parse(text)
        assert back.algebra.labels == data.algebra.labels
        assert back.algebra.table == data.algebra.table
        assert back.r == data.r
        assert back.psi == data.psi
        assert back.mu == data.mu
        assert back.xi == data.xi
        assert back.subalgebra_vectors == data.subalgebra_vectors
        assert serialize(back) == text

    def test_fractional_structure_constants(self):
        g = LieAlgebra(
            ["a", "b", "c"], {(0, 1): {2: Fraction(-5, 3), 0: Fraction(1, 2)}}
        )
        text = serialize(StructureData(algebra=g))
        assert parse(text).algebra.table == g.table

    def test_serialization_is_deterministic(self):
        e = q_example(2)
        assert serialize(from_catalog_entry(e)) == serialize(from_catalog_entry(q_example(2)))

    def test_no_floats_anywhere(self):
        text = serialize(from_catalog_entry(gg_example(3)))
        for token in text.replace("=", " ").split():
            assert "." not in token, token

    def test_randomized_round_trips(self):
        import itertools
        import random

        from conftest import random_cochain, random_multivector
        from modclass.catalog import gl

        rng = random.Random(99)
        g = gl(2)
        for _ in range(25):
            r = random_multivector(rng, 4, 2, density=0.6)
            mu = random_cochain(rng, 4, 2, density=0.6)
            xi = random_cochain(rng, 4, 1, density=0.6)
            vectors = tuple(
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
                for _ in range(rng.randint(0, 3))
            )
            data = StructureData(
                algebra=g,
                name=f"case{rng.randint(0, 999)}",
                r=r,
                mu=mu,
                xi=xi,
                subalgebra_vectors=vectors,
            )
            back = parse(serialize(data))
            assert back.r == r and back.mu == mu and back.xi == xi
            assert back.subalgebra_vectors == vectors
            assert back.name == data.name


HALFPLANE_BLOCK = "[algebra]\nlabels = x y\nbracket x y = y\n"


class TestAlgebraReuse:
    """One process keeps the last ``_ALGEBRA_SLOTS`` algebra blocks that
    passed the Jacobi check, and a repeated block reuses its algebra."""

    @pytest.fixture(autouse=True)
    def empty_slots(self, monkeypatch):
        monkeypatch.setattr(structfile, "_algebras", OrderedDict())

    def test_same_block_gives_same_algebra(self):
        text = serialize(from_catalog_entry(gg_example(3)))
        first = parse(text)
        other = StructureData(algebra=first.algebra, name="other", r=2 * first.r)
        second = parse("# a comment\n\n" + serialize(other))
        assert second.algebra is first.algebra
        assert second.r == 2 * first.r

    def test_jacobi_violation_fails_every_parse(self):
        text = "[algebra]\nlabels = x y z\nbracket x y = y\nbracket x z = z\nbracket y z = x\n"
        messages = []
        for _ in range(3):
            with pytest.raises(StructureFileError, match="Jacobi") as info:
                parse(text)
            messages.append(str(info.value))
        assert len(set(messages)) == 1
        assert not structfile._algebras

    def test_term_errors_keep_their_line_numbers(self):
        parse(HALFPLANE_BLOCK + "[r]\nterm x y = 1\n")
        shifted = "# one\n\n# three\n" + HALFPLANE_BLOCK + "[r]\nterm x y = 0.5\n"
        with pytest.raises(StructureFileError, match="^line 8: expected an exact rational"):
            parse(shifted)
        with pytest.raises(StructureFileError, match="^line 6: unknown basis label 'z'"):
            parse(HALFPLANE_BLOCK + "[r]\nterm x y = 1\nterm x z = 1\n")
        assert len(structfile._algebras) == 1

    @pytest.mark.parametrize(
        "block, other",
        [
            (HALFPLANE_BLOCK, "[algebra]\nlabels = a b\nbracket a b = b\n"),
            (HALFPLANE_BLOCK, "[algebra]\nlabels = x y\nbracket x y = 2 y\n"),
            (HALFPLANE_BLOCK, "[algebra]\nlabels = x y\nbracket x y = -1 y\n"),
            (HALFPLANE_BLOCK, "[algebra]\nlabels = x y\n"),
            ("[algebra]\nlabels = x y\n", "[algebra]\nlabels = a b\n"),
            (
                "[algebra]\nlabels = x y z\nbracket x y = y\n",
                "[algebra]\nlabels = x y w\nbracket x y = y\n",
            ),
        ],
    )
    def test_different_blocks_are_not_confused(self, block, other):
        first = parse(block).algebra
        second = parse(other).algebra
        assert second is not first
        assert (second.labels, second.table) != (first.labels, first.table)
        assert parse(block).algebra is first
        assert parse(other).algebra is second

    def test_slots_are_bounded_and_least_recent_goes_first(self):
        blocks = [
            f"[algebra]\nlabels = x y\nbracket x y = {k} y\n"
            for k in range(1, 2 * structfile._ALGEBRA_SLOTS + 2)
        ]
        kept = parse(blocks[0]).algebra
        dropped = parse(blocks[1]).algebra
        for text in blocks[2:]:
            assert parse(blocks[0]).algebra is kept
            parse(text)
            assert len(structfile._algebras) <= structfile._ALGEBRA_SLOTS
        assert len(structfile._algebras) == structfile._ALGEBRA_SLOTS
        assert parse(blocks[0]).algebra is kept
        assert parse(blocks[1]).algebra is not dropped

    def test_digit_limit_still_applies_to_a_stored_block(self):
        limit = sys.get_int_max_str_digits()
        text = f"[algebra]\nlabels = x y\nbracket x y = {'7' * (limit + 1)} y\n"
        sys.set_int_max_str_digits(limit + 10)
        try:
            assert parse(text).algebra.table[(0, 1)][1] == int("7" * (limit + 1))
        finally:
            sys.set_int_max_str_digits(limit)
        with pytest.raises(StructureFileError, match="^line 3: rational literal too long"):
            parse(text)

    def test_block_is_keyed_by_its_stripped_lines(self):
        first = parse("name = one\n" + HALFPLANE_BLOCK + "[r]\nterm x y = 1\n").algebra
        same = (
            "# a header comment\nname = two\n\n[algebra]\n"
            "  # inside the block\n\n   labels = x y   # trailing\n\t bracket x y = y \n\n"
            "[mu]\nterm x y = 3\n"
        )
        assert parse(same).algebra is first
        assert len(structfile._algebras) == 1

    @pytest.mark.parametrize(
        "spaced",
        [
            "[algebra]\nlabels = x  y\nbracket x y = y\n",
            "[algebra]\nlabels = x y\nbracket x y  =  y\n",
            "[algebra]\nlabels=x y\nbracket x y = y\n",
            "[algebra]\nlabels = x y\nbracket x\ty = y\n",
        ],
    )
    def test_inner_spacing_is_a_miss_with_an_equal_algebra(self, spaced):
        first = parse(HALFPLANE_BLOCK).algebra
        second = parse(spaced).algebra
        assert second is not first
        assert (second.labels, second.table) == (first.labels, first.table)
        assert len(structfile._algebras) == 2

    def test_block_may_run_to_the_end_of_the_file(self):
        first = parse(HALFPLANE_BLOCK + "[r]\nterm x y = 1\n").algebra
        data = parse("name = tail\n" + HALFPLANE_BLOCK.rstrip("\n"))
        assert data.algebra is first
        assert data.name == "tail" and data.r is None

    def test_second_algebra_header_after_a_stored_block(self):
        parse(HALFPLANE_BLOCK)
        text = "# one\n" + HALFPLANE_BLOCK + "[ algebra ]\nlabels = x y\n"
        with pytest.raises(StructureFileError, match="^line 5: duplicate section \\[algebra\\]"):
            parse(text)
        with pytest.raises(StructureFileError, match="^line 6: duplicate section \\[algebra\\]"):
            parse(HALFPLANE_BLOCK + "[r]\nterm x y = 1\n[algebra]\n")

    @pytest.mark.parametrize(
        "bad_line",
        [
            "bracket x z = y",
            "bracket y x = y",
            "bracket x y = x",
            "bracket x y = 0.5 y",
            "bracket x y = 1/0 y",
            "dim = 3",
            "dim = two",
            "labels = x",
            "term x y = 1",
            "bracket x y",
        ],
    )
    def test_bad_line_in_a_stored_block_fails_as_a_cold_parse(self, bad_line):
        good = "name = g\n" + HALFPLANE_BLOCK + "[r]\nterm x y = 1\n"
        bad = good.replace("bracket x y = y\n", f"bracket x y = y\n{bad_line}\n")
        with pytest.raises(StructureFileError) as cold:
            parse(bad)
        assert not structfile._algebras
        parse(good)
        with pytest.raises(StructureFileError) as warm:
            parse(bad)
        assert (str(warm.value), warm.value.line) == (str(cold.value), cold.value.line)
        assert len(structfile._algebras) == 1

    @pytest.mark.parametrize(
        "line, extra, lineno, match",
        [
            ("labels = x y\n", "labels = z\n", 4, "duplicate labels line"),
            ("bracket x y = y\n", "dim = 3\n", 5, "duplicate dim line"),
        ],
        ids=["labels", "dim"],
    )
    def test_second_labels_or_dim_line_is_refused(self, line, extra, lineno, match):
        # one labels line and at most one dim line: before, labels lines
        # were appended to each other and the last dim won
        good = "[algebra]\ndim = 2\nlabels = x y\nbracket x y = y\n[r]\nterm x y = 1\n"
        bad = good.replace(line, line + extra)
        with pytest.raises(StructureFileError, match=f"^line {lineno}: {match}") as cold:
            parse(bad)
        assert not structfile._algebras
        stored = parse(good).algebra
        with pytest.raises(StructureFileError) as warm:
            parse(bad)
        assert (str(warm.value), warm.value.line) == (str(cold.value), cold.value.line)
        assert list(structfile._algebras.values()) == [stored]

    def test_labels_and_dim_lines_repeated_in_either_order(self):
        text = "[algebra]\ndim = 5\nlabels = x y\nlabels = z\ndim = 3\n"
        with pytest.raises(StructureFileError, match="^line 4: duplicate labels line"):
            parse(text)
        with pytest.raises(StructureFileError, match="^line 3: duplicate dim line"):
            parse("[algebra]\ndim = 3\ndim = 3\nlabels = x y z\n")
        assert not structfile._algebras


GOLDEN = Path(__file__).parent / "golden"


class TestSerializeReuse:
    """``serialize`` writes the block of one algebra object once, and keeps
    it apart from the blocks ``parse`` checked."""

    @pytest.fixture(autouse=True)
    def empty_caches(self, monkeypatch):
        monkeypatch.setattr(structfile, "_algebras", OrderedDict())
        monkeypatch.setattr(structfile, "_algebra_texts", OrderedDict())

    def test_unchecked_algebra_never_reaches_the_parse_cache(self):
        broken = LieAlgebra(
            ["x", "y", "z"], {(0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {0: 1}}, check=False
        )
        texts = [serialize(StructureData(algebra=broken)) for _ in range(2)]
        assert texts[0] == texts[1]
        assert structfile._algebra_texts[id(broken)][0] is broken
        for text in texts:
            with pytest.raises(StructureFileError, match="violates the Jacobi identity"):
                parse(text)
        assert not structfile._algebras

    def test_warm_serialize_equals_cold(self, affine_entry, q_entries, gg_entries):
        entries = [affine_entry, *q_entries.values(), *gg_entries.values()]
        cold = []
        for entry in entries:
            structfile._algebra_texts.clear()
            cold.append(serialize(from_catalog_entry(entry)))
        for _ in range(2):
            for entry, text in zip(entries, cold):
                assert serialize(from_catalog_entry(entry)) == text
        assert len(structfile._algebra_texts) == structfile._ALGEBRA_SLOTS

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.lie")), ids=lambda p: p.name)
    def test_golden_files_round_trip_cold_and_warm(self, path):
        text = path.read_text(encoding="utf-8")
        data = parse(text)
        assert serialize(data) == text
        assert serialize(data) == text
        assert serialize(parse(text)) == text

    def test_short_lived_algebras_get_their_own_text(self):
        for k in range(1, 3 * structfile._ALGEBRA_SLOTS):
            text = serialize(StructureData(algebra=LieAlgebra(["x", "y"], {(0, 1): {1: k}})))
            assert text.endswith(f"bracket x y = {'y' if k == 1 else f'{k} y'}\n")
            assert len(structfile._algebra_texts) <= structfile._ALGEBRA_SLOTS


# a few values, so that literals repeat within a file, zero among them
_POOL = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-7, 3)]
_CATALOG = [affine_example(), q_example(2), q_example(3), gg_example(2), gg_example(3)]


@st.composite
def structures(draw):
    """Catalog entries and seeded linearizations, with a drawn [xi] block."""
    source = draw(st.sampled_from(["linearize", *range(len(_CATALOG))]))
    if source == "linearize":
        g, p, mu = make_random_linearize_input(random.Random(draw(st.integers(0, 2**16))))
        lin = linearize(g, p, mu)
        data = StructureData(
            algebra=g, name="lin", r=lin.r, psi=lin.psi, subalgebra_vectors=p.basis, mu=mu
        )
    else:
        data = from_catalog_entry(_CATALOG[source])
    n = data.algebra.dim
    values = draw(st.lists(st.sampled_from(_POOL), min_size=n, max_size=n))
    xi = Cochain(n, 1, {(i,): c for i, c in enumerate(values)})
    return StructureData(
        algebra=data.algebra,
        name=data.name,
        r=data.r,
        psi=data.psi,
        subalgebra_vectors=data.subalgebra_vectors,
        mu=data.mu,
        xi=xi,
    ), values


@settings(max_examples=60, deadline=None)
@given(structures(), st.booleans())
def test_serialize_parse_serialize_is_byte_identical(case, cold):
    data, values = case
    if cold:
        structfile._algebras.clear()
        structfile._algebra_texts.clear()
    text = serialize(data)
    assert serialize(parse(text)) == text
    # [xi] is written last, so these zero terms land in it
    labels = data.algebra.labels
    zeros = "".join(f"term {labels[i]} = 0\n" for i, c in enumerate(values) if c == 0)
    assert serialize(parse(text + zeros)) == text
    assert serialize(data) == text
