"""The structure-file text format: parsing and deterministic serialization.

A structure file is a line-based, human-writable description of a Lie
algebra together with optional bivector, twist, subalgebra, 2-cochain and
1-cochain blocks.  All coefficients are exact rationals written as
integers or p/q; floating-point literals are rejected.  Unknown sections
and keys are rejected, and so is a second ``dim`` or ``labels`` line in
``[algebra]``.

Example::

    name = affine
    [algebra]
    dim = 6
    labels = e11 e12 e13 e21 e22 e23
    bracket e11 e12 = e12
    bracket e12 e21 = e11 - e22
    [r]
    term e11 e22 = 1
    [psi]
    term e11 e13 e23 = -1
    [subalgebra]
    vector = e11
    vector = e22
    [mu]
    term e11 e22 = 1
    [xi]
    term e12 = 1

The bracket table lists each basis pair at most once, in basis order
(earlier label first); antisymmetry is synthesized.  Index tuples in term
blocks must be strictly increasing in basis order.  The Jacobi identity is
checked as soon as the algebra block is complete; a violating table is a
parse error.  Jacobi is checked once per distinct block per process: a
file whose ``[algebra]`` block has the same lines as one of the last
``_ALGEBRA_SLOTS`` blocks that passed, once comments, blank lines and the
spaces at each line's ends are dropped, gets that block's algebra back
without reading the lines again.  Spacing inside a line counts, so a block
spaced differently is read afresh and gives an equal algebra.
``serialize`` likewise writes the block of one algebra object once and
reuses the text while the object stays among the last ``_ALGEBRA_SLOTS``
it wrote.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .liealg import Cochain, JacobiViolationError, LieAlgebra, Multivector
from .linalg import SparseVec, Vector, _RAT_RE, dense

_SECTIONS = ("algebra", "r", "psi", "subalgebra", "mu", "xi")
_TERM_DEGREE = {"r": 2, "psi": 3, "mu": 2, "xi": 1}

# Algebra blocks that passed the Jacobi check in this process, least
# recently used first, keyed by the block's comment-stripped, stripped,
# non-empty lines and the literal digit limit, which decides whether a long
# coefficient parses.  A failing block is never stored, so it fails on
# every parse.
_ALGEBRA_SLOTS = 8
_algebras: OrderedDict[tuple[tuple[str, ...], int], LieAlgebra] = OrderedDict()
# The [algebra] block text of the last serialized algebras, least recently
# used first, keyed by id(); each entry holds its object, so the id is not
# reused while the entry lives.  Kept apart from _algebras: a serialized
# algebra may be unchecked.
_algebra_texts: OrderedDict[int, tuple[LieAlgebra, str]] = OrderedDict()


class StructureFileError(ValueError):
    """Malformed structure file (syntax, unknown fields, or invalid algebra)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class StructureData:
    """Parsed contents of a structure file."""

    algebra: LieAlgebra
    name: str | None = None
    r: Multivector | None = None
    psi: Cochain | None = None
    subalgebra_vectors: tuple[Vector, ...] | None = None
    mu: Cochain | None = None
    xi: Cochain | None = None


def _fail(msg: str, line: int) -> StructureFileError:
    return StructureFileError(msg, line)


def _is_rational(token: str) -> bool:
    return bool(_RAT_RE.match(token))


def _fraction(token: str, line: int) -> Fraction:
    """A rational literal; a zero denominator, or a literal too long for
    int() conversion, is malformed."""
    try:
        return Fraction(token)
    except ZeroDivisionError as exc:
        raise _fail(f"zero denominator in {token!r}", line) from exc
    except ValueError as exc:
        raise _fail(
            "rational literal too long: a numerator or denominator has more "
            f"than {sys.get_int_max_str_digits()} digits",
            line,
        ) from exc


def _parse_rational(token: str, line: int) -> Fraction:
    if not _is_rational(token):
        raise _fail(f"expected an exact rational, got {token!r}", line)
    return _fraction(token, line)


_ONE = Fraction(1)


def _parse_combination(tokens: list[str], labels: dict[str, int], line: int) -> SparseVec:
    """A linear combination like ``e11 - 2 e12 + 1/3 e22`` over the labels,
    as a sparse vector."""
    out: SparseVec = {}
    if tokens == ["0"]:
        return out
    sign = 1
    coeff: Fraction | None = None
    pending_sign = False
    for tok in tokens:
        if tok in ("+", "-"):
            if pending_sign or coeff is not None:
                raise _fail("misplaced sign in expression", line)
            sign = 1 if tok == "+" else -1
            pending_sign = True
        elif _is_rational(tok):
            if coeff is not None:
                raise _fail("two consecutive coefficients in expression", line)
            coeff = _fraction(tok, line)
        elif tok in labels:
            c = _ONE if coeff is None else coeff
            c = c if sign > 0 else -c
            k = labels[tok]
            out[k] = c if k not in out else out[k] + c
            sign, coeff, pending_sign = 1, None, False
        else:
            raise _fail(f"unknown basis label {tok!r}", line)
    if coeff is not None or pending_sign:
        raise _fail("expression ends without a basis label", line)
    return {k: c for k, c in out.items() if c}


def _parse_algebra(
    labels: dict[str, int], bracket_lines: list[tuple[int, str, str, list[str]]]
) -> LieAlgebra:
    """The algebra of the bracket lines, checked for the Jacobi identity."""
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for lineno, la, lb, rhs_tokens in bracket_lines:
        for lab in (la, lb):
            if lab not in labels:
                raise _fail(f"unknown basis label {lab!r}", lineno)
        i, j = labels[la], labels[lb]
        if i >= j:
            raise _fail(
                "bracket pairs must be listed with the earlier basis label first",
                lineno,
            )
        if (i, j) in brackets:
            raise _fail(f"duplicate bracket for ({la}, {lb})", lineno)
        entry = _parse_combination(rhs_tokens, labels, lineno)
        if entry:
            brackets[(i, j)] = entry

    try:
        return LieAlgebra(list(labels), brackets, check=True)
    except JacobiViolationError as exc:
        names = tuple(list(labels)[t] for t in exc.triple)
        raise StructureFileError(
            f"bracket table violates the Jacobi identity at basis triple {names}"
        ) from exc


def parse(text: str) -> StructureData:
    """Parse structure-file text; raises StructureFileError on any problem."""
    name: str | None = None
    section: str | None = None
    seen: set[str] = set()
    labels: dict[str, int] = {}
    declared_dim: int | None = None
    bracket_lines: list[tuple[int, str, str, list[str]]] = []
    term_blocks: dict[str, dict[tuple[int, ...], Fraction]] = {}
    term_lines: dict[str, list[tuple[int, list[str], str]]] = {}
    vector_lines: list[tuple[int, list[str]]] = []
    algebra: LieAlgebra | None = None
    block_key: tuple[tuple[str, ...], int] | None = None

    stripped = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    numbered = enumerate(stripped, start=1)
    for lineno, line in numbered:
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            sec = line[1:-1].strip()
            if sec not in _SECTIONS:
                raise _fail(f"unknown section [{sec}]", lineno)
            if sec in seen:
                raise _fail(f"duplicate section [{sec}]", lineno)
            if sec != "algebra" and "algebra" not in seen:
                raise _fail("the [algebra] section must come first", lineno)
            seen.add(sec)
            section = sec
            if sec in _TERM_DEGREE:
                term_blocks[sec] = {}
                term_lines[sec] = []
            elif sec == "algebra":
                # the block runs to the next section header or the end
                end = lineno
                while end < len(stripped) and not (
                    stripped[end].startswith("[") and stripped[end].endswith("]")
                ):
                    end += 1
                block_key = (
                    tuple(b for b in stripped[lineno:end] if b),
                    sys.get_int_max_str_digits(),
                )
                algebra = _algebras.get(block_key)
                if algebra is not None:
                    # these very lines passed every check once: skip them
                    _algebras.move_to_end(block_key)
                    labels = algebra._index
                    next(islice(numbered, end - lineno, end - lineno), None)
            continue
        if "=" not in line:
            raise _fail("expected 'key ... = value'", lineno)
        lhs, rhs = line.split("=", 1)
        key_parts = lhs.split()
        value = rhs.strip()
        if not key_parts:
            raise _fail("missing key before '='", lineno)
        key, args = key_parts[0], key_parts[1:]

        if section is None:
            if key == "name" and not args:
                name = value
                continue
            raise _fail(f"unexpected key {key!r} before any section", lineno)

        if section == "algebra":
            if key == "dim" and not args:
                if declared_dim is not None:
                    raise _fail("duplicate dim line in [algebra]", lineno)
                try:
                    declared_dim = int(value)
                except ValueError:
                    raise _fail("dim must be an integer", lineno)
            elif key == "labels" and not args:
                if labels:
                    raise _fail("duplicate labels line in [algebra]", lineno)
                toks = value.split()
                if not toks:
                    raise _fail("labels line is empty", lineno)
                for t in toks:
                    if _is_rational(t) or t in ("+", "-"):
                        raise _fail(f"label {t!r} would be ambiguous in expressions", lineno)
                    if t in labels:
                        raise _fail(f"duplicate label {t!r}", lineno)
                    labels[t] = len(labels)
            elif key == "bracket" and len(args) == 2:
                bracket_lines.append((lineno, args[0], args[1], value.split()))
            else:
                raise _fail(f"unknown [algebra] entry {lhs.strip()!r}", lineno)
            continue

        if section in _TERM_DEGREE:
            if key != "term":
                raise _fail(f"only 'term' lines are allowed in [{section}]", lineno)
            if len(args) != _TERM_DEGREE[section]:
                raise _fail(
                    f"[{section}] terms need exactly {_TERM_DEGREE[section]} labels",
                    lineno,
                )
            term_lines[section].append((lineno, args, value))
            continue

        if section == "subalgebra":
            if key != "vector" or args:
                raise _fail("only 'vector = <combination>' lines are allowed", lineno)
            vector_lines.append((lineno, value.split()))
            continue

        raise _fail(f"unexpected key {key!r}", lineno)

    if "algebra" not in seen:
        raise StructureFileError("missing [algebra] section")
    if algebra is None:
        if not labels:
            raise StructureFileError("missing labels line in [algebra]")
        if declared_dim is not None and declared_dim != len(labels):
            raise StructureFileError(
                f"declared dim {declared_dim} does not match {len(labels)} labels"
            )
        algebra = _parse_algebra(labels, bracket_lines)
        _algebras[block_key] = algebra
        if len(_algebras) > _ALGEBRA_SLOTS:
            _algebras.popitem(last=False)

    literals: dict[str, Fraction] = {}
    for sec, lines in term_lines.items():
        for lineno, args, value in lines:
            idx = []
            for lab in args:
                if lab not in labels:
                    raise _fail(f"unknown basis label {lab!r}", lineno)
                idx.append(labels[lab])
            idx = tuple(idx)
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise _fail("term indices must be strictly increasing in basis order", lineno)
            if idx in term_blocks[sec]:
                raise _fail("duplicate term", lineno)
            coeff = literals.get(value)
            if coeff is None:
                coeff = literals[value] = _parse_rational(value, lineno)
            if coeff != 0:
                term_blocks[sec][idx] = coeff

    n = len(labels)
    subvectors: tuple[Vector, ...] | None = None
    if "subalgebra" in seen:
        subvectors = tuple(
            dense(_parse_combination(tokens, labels, lineno), n) for lineno, tokens in vector_lines
        )

    return StructureData(
        algebra=algebra,
        name=name,
        r=Multivector(n, 2, term_blocks["r"]) if "r" in seen else None,
        psi=Cochain(n, 3, term_blocks["psi"]) if "psi" in seen else None,
        subalgebra_vectors=subvectors,
        mu=Cochain(n, 2, term_blocks["mu"]) if "mu" in seen else None,
        xi=Cochain(n, 1, term_blocks["xi"]) if "xi" in seen else None,
    )


def parse_path(path) -> StructureData:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StructureFileError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise StructureFileError(f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    return parse(text)


# Decimal digits per chunk when writing a long int: the smallest int-to-str
# digit limit Python allows, so every chunk converts under any setting.
_CHUNK_DIGITS = sys.int_info.str_digits_check_threshold
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(n: int) -> str:
    """Decimal digits of an int of any length.

    ``str(int)`` refuses more than ``sys.get_int_max_str_digits()`` digits.
    That limit stays in force, because the parser relies on it to reject
    overlong literals, so long ints are written a chunk at a time.
    """
    if n < 0:
        return "-" + _decimal(-n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    return str(n) + "".join(reversed(chunks))


def rational_str(c: Fraction) -> str:
    """Exact text form of a rational, ``n`` or ``n/d``, at any size."""
    if c.denominator == 1:
        return _decimal(c.numerator)
    return f"{_decimal(c.numerator)}/{_decimal(c.denominator)}"


def combination_str(v: Vector | SparseVec, labels: tuple[str, ...]) -> str:
    """Text form of a dense or sparse vector, terms in index order."""
    parts: list[str] = []
    for i, c in sorted(v.items()) if isinstance(v, dict) else enumerate(v):
        if c == 0:
            continue
        mag = abs(c)
        body = labels[i] if mag == 1 else f"{rational_str(mag)} {labels[i]}"
        if not parts and c > 0:
            parts.append(body)
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts) if parts else "0"


def _algebra_block(g: LieAlgebra) -> str:
    """The ``[algebra]`` block of g, built once while g stays among the last
    ``_ALGEBRA_SLOTS`` algebras written."""
    hit = _algebra_texts.get(id(g))
    if hit is not None:
        _algebra_texts.move_to_end(id(g))
        return hit[1]
    lines = ["[algebra]", f"dim = {g.dim}", f"labels = {' '.join(g.labels)}"]
    for (i, j), entry in sorted(g.table.items()):
        lines.append(f"bracket {g.labels[i]} {g.labels[j]} = {combination_str(entry, g.labels)}")
    block = "\n".join(lines)
    _algebra_texts[id(g)] = (g, block)
    if len(_algebra_texts) > _ALGEBRA_SLOTS:
        _algebra_texts.popitem(last=False)
    return block


def serialize(data: StructureData) -> str:
    """Deterministic text form: fixed section order, terms in index order."""
    g = data.algebra
    lines: list[str] = []
    if data.name:
        lines.append(f"name = {data.name}")
    lines.append(_algebra_block(g))
    lines += _term_sections(g.labels, (("r", data.r), ("psi", data.psi)))
    if data.subalgebra_vectors is not None:
        lines.append("[subalgebra]")
        for v in data.subalgebra_vectors:
            lines.append(f"vector = {combination_str(v, g.labels)}")
    lines += _term_sections(g.labels, (("mu", data.mu), ("xi", data.xi)))
    return "\n".join(lines) + "\n"


def _term_sections(labels: tuple[str, ...], sections) -> list[str]:
    """The ``term`` lines of each (name, multivector or cochain) section
    that is present, under its ``[name]`` header."""
    lines = []
    for sec, obj in sections:
        if obj is not None:
            lines.append(f"[{sec}]")
            for idx, coeff in obj.sorted_terms():
                mono = " ".join(labels[a] for a in idx)
                lines.append(f"term {mono} = {rational_str(coeff)}")
    return lines


def from_catalog_entry(entry) -> StructureData:
    """Structure-file data for a catalog entry, including its auxiliary blocks."""
    return StructureData(
        algebra=entry.g,
        name=entry.name if entry.n is None else f"{entry.name}{entry.n}",
        r=entry.structure.r,
        psi=entry.structure.psi,
        subalgebra_vectors=entry.subalgebra.basis,
        mu=entry.mu,
        xi=entry.xi,
    )
