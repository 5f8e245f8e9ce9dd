"""Command-line interface: verification and reports over structure files.

Exit codes: 0 success or verified; 1 well-formed input that fails a
mathematical check (nonzero Yang-Baxter residual, degenerate form, and so
on); 2 malformed input.  Reports are plain text by default or JSON with
``--format json``; rational coefficients always appear as exact strings,
never as floating point.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial
from pathlib import Path

from .catalog import entry_names, get_entry
from .frobenius import (
    DegenerateFormError,
    NotFrobeniusError,
    frobenius_modular,
    linearize,
)
from .liealg import Cochain, Multivector, NotClosedError, span_subalgebra
from .structfile import (
    StructureData,
    StructureFileError,
    combination_str,
    from_catalog_entry,
    parse_path,
    rational_str,
    serialize,
)
from .twisted import (
    PsiNotClosedError,
    TwistedTriangularStructure,
    carrier_and_kernel,
    modular_class,
    relation_check,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2


class _Failure(Exception):
    """A well-formed input that fails verification (exit code 1)."""

    def __init__(self, message: str, detail: dict | None = None):
        self.detail = detail or {}
        super().__init__(message)


def _alt_json(labels, alt) -> list[dict]:
    return [
        {"indices": [labels[a] for a in idx], "coefficient": rational_str(c)}
        for idx, c in alt.sorted_terms()
    ]


def _alt_text(labels, alt, star: bool) -> list[str]:
    mark = "*" if star else ""
    out = []
    for idx, c in alt.sorted_terms():
        mono = "^".join(f"{labels[a]}{mark}" for a in idx)
        out.append(f"{mono} = {rational_str(c)}")
    return out or ["0"]


def _vector_json(labels, vec) -> dict[str, str]:
    """The nonzero entries of a dense or sparse vector by label, in index order."""
    items = sorted(vec.items()) if isinstance(vec, dict) else enumerate(vec)
    return {labels[i]: rational_str(c) for i, c in items if c != 0}


def _covector_str(labels, vec) -> str:
    starred = tuple(f"{lab}*" for lab in labels)
    return combination_str(vec, starred)


class _Report:
    """Collects text lines and a JSON payload side by side."""

    def __init__(self, command: str):
        self.lines: list[str] = []
        self.payload: dict = {"command": command}
        # a structure file written to stdout replaces the text report
        self.raw: str | None = None

    def add(self, text_line: str, key: str | None = None, value=None):
        self.lines.append(text_line)
        if key is not None:
            self.payload[key] = value

    def emit(self, fmt: str, stream=None) -> None:
        stream = stream or sys.stdout
        if fmt == "json":
            print(json.dumps(self.payload, indent=2), file=stream)
        elif self.raw is not None:
            stream.write(self.raw)
        else:
            print("\n".join(self.lines), file=stream)


def _require(value, section: str, command: str):
    if value is None:
        raise StructureFileError(f"the {command} command requires a [{section}] section")
    return value


def _emit_structure(args, report: _Report, text: str) -> None:
    """Send a structure file to ``-o``, into the JSON payload, or to stdout.

    An unwritable path is bad input, like an unreadable one.
    """
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise StructureFileError(f"cannot write {args.output}: {exc.strerror or exc}")
        report.add(f"wrote {args.output}", "output", args.output)
    elif args.format == "json":
        report.payload["structure_file"] = text
    else:
        report.raw = text
    report.add("status: OK", "status", "ok")


def _span_or_fail(g, vectors):
    try:
        return span_subalgebra(g, vectors)
    except NotClosedError as exc:
        x, y, w = exc.witness
        raise _Failure(
            "subalgebra is not closed: the bracket of "
            f"({combination_str(x, g.labels)}) and ({combination_str(y, g.labels)}) "
            f"is {combination_str(w, g.labels)}, outside the span"
        )


def _structure_from_data(data: StructureData) -> TwistedTriangularStructure:
    g = data.algebra
    r = data.r if data.r is not None else Multivector.zero(g.dim, 2)
    psi = data.psi if data.psi is not None else Cochain.zero(g.dim, 3)
    return TwistedTriangularStructure.unchecked(g, r, psi)


def _verified_structure(data: StructureData, report: _Report) -> TwistedTriangularStructure:
    """Run closedness and Yang-Baxter checks, raising _Failure with residuals."""
    st = _structure_from_data(data)
    g = st.g
    try:
        result = st.verify()
    except PsiNotClosedError as exc:
        report.add("psi closed: no", "psi_closed", False)
        raise _Failure(
            "psi is not closed",
            {"closedness_residual": _alt_json(g.labels, exc.residual)},
        )
    report.add("psi closed: yes", "psi_closed", True)
    if not result.passed:
        report.add("yang-baxter: FAIL", "yang_baxter", False)
        for line in _alt_text(g.labels, result.residual, star=False):
            report.add(f"  residual {line}")
        report.payload["residual"] = _alt_json(g.labels, result.residual)
        raise _Failure("twisted Yang-Baxter equation fails")
    report.add("yang-baxter: pass", "yang_baxter", True)
    return st


def _cmd_verify_one(path: str, report: _Report) -> None:
    data = parse_path(path)
    st = _verified_structure(data, report)
    carrier, kernel = carrier_and_kernel(st)
    report.add(f"carrier dim: {carrier.dim}", "carrier_dim", carrier.dim)
    report.add(f"kernel dim: {len(kernel)}", "kernel_dim", len(kernel))
    # d psi = 0 and a zero Yang-Baxter residual make r# a homomorphism and
    # the dual bracket a Lie bracket (see the ``twisted`` module docstring)
    report.add("sharp homomorphism: pass", "sharp_homomorphism", True)
    report.add("dual Jacobi: pass", "dual_jacobi", True)
    report.add("status: VERIFIED", "status", "verified")


def cmd_verify(args) -> int:
    paths: list[str] = []
    for p in args.paths:
        pt = Path(p)
        if args.all and pt.is_dir():
            paths.extend(str(q) for q in sorted(pt.glob("*.lie")))
        else:
            paths.append(p)
    if not paths:
        print("error: no input files", file=sys.stderr)
        return EXIT_BAD_INPUT
    if len(paths) > 1 and not args.all:
        print("error: multiple inputs require --all", file=sys.stderr)
        return EXIT_BAD_INPUT
    worst = EXIT_OK
    reports = []
    for path in paths:
        report = _Report("verify")
        report.payload["input"] = path
        if len(paths) > 1:
            report.lines.append(f"== {path} ==")
        try:
            _cmd_verify_one(path, report)
        except StructureFileError as exc:
            report.add(f"malformed input: {exc}", "status", "malformed")
            report.payload["error"] = str(exc)
            worst = max(worst, EXIT_BAD_INPUT)
        except _Failure as exc:
            report.add(f"status: FAILED ({exc})", "status", "failed")
            report.payload.update(exc.detail)
            worst = max(worst, EXIT_FAIL)
        reports.append(report)
    if args.format == "json":
        payloads = [r.payload for r in reports]
        print(json.dumps(payloads[0] if len(payloads) == 1 else payloads, indent=2))
    else:
        print("\n".join(line for r in reports for line in r.lines))
    return worst


def cmd_modular(args, report: _Report) -> None:
    st = _verified_structure(parse_path(args.path), report)
    g = st.g
    mc = modular_class(st)
    carrier_labels = mc.carrier.labels()
    report.add(f"carrier dim: {mc.carrier.dim}", "carrier_dim", mc.carrier.dim)
    report.add(
        "carrier basis: "
        + (", ".join(combination_str(b, g.labels) for b in mc.carrier.rows) or "(none)"),
        "carrier_basis",
        [_vector_json(g.labels, b) for b in mc.carrier.rows],
    )
    report.add(
        "kernel basis: "
        + (", ".join(_covector_str(g.labels, k.to_vector()) for k in mc.kernel) or "(none)"),
        "kernel_basis",
        [_alt_json(g.labels, k) for k in mc.kernel],
    )
    report.add(
        "character on kernel: " + _covector_str(carrier_labels, mc.chi_kernel.to_vector()),
        "chi_kernel",
        _vector_json(carrier_labels, mc.chi_kernel.to_vector()),
    )
    report.add(
        "character on quotient: " + _covector_str(carrier_labels, mc.chi_quotient.to_vector()),
        "chi_quotient",
        _vector_json(carrier_labels, mc.chi_quotient.to_vector()),
    )
    report.add(
        "representative: " + combination_str(mc.representative, g.labels),
        "representative",
        _vector_json(g.labels, mc.representative),
    )
    for name, check in sorted(mc.crosschecks.items()):
        report.add(f"crosscheck {name}: {'pass' if check.passed else 'FAIL'}")
    report.payload["crosschecks"] = {
        name: check.passed for name, check in sorted(mc.crosschecks.items())
    }
    report.add("status: OK", "status", "ok")


def cmd_relations(args, report: _Report) -> None:
    st = _verified_structure(parse_path(args.path), report)
    g = st.g
    rel = relation_check(st)
    carrier, _ = carrier_and_kernel(st)
    named = (
        ("modular_vs_relative", rel.modular_vs_relative, g.labels),
        ("dual_vs_carrier", rel.dual_vs_carrier, g.labels),
        ("restriction_vs_carrier", rel.restriction_vs_carrier, carrier.labels()),
    )
    for name, residual, labels in named:
        zero = all(x == 0 for x in residual)
        report.add(
            f"{name}: {'0' if zero else _covector_str(labels, residual)}",
            name,
            _vector_json(labels, residual),
        )
    if not rel.passed:
        raise _Failure("a trace identity has a nonzero residual")
    report.add("status: OK", "status", "ok")


def cmd_frobenius(args, report: _Report) -> None:
    data = parse_path(args.path)
    g = data.algebra
    vectors = _require(data.subalgebra_vectors, "subalgebra", "frobenius")
    xi_g = _require(data.xi, "xi", "frobenius")
    p = _span_or_fail(g, vectors)
    try:
        x = frobenius_modular(g, p, p.restrict_cochain(xi_g))
    except NotFrobeniusError as exc:
        report.add("frobenius: no", "frobenius", False)
        detail = {}
        if exc.witness is not None:
            detail["kernel_witness"] = _vector_json(g.labels, exc.witness)
        raise _Failure(str(exc), detail)
    report.add("frobenius: yes", "frobenius", True)
    report.add(
        "modular representative: " + combination_str(x, g.labels),
        "representative",
        _vector_json(g.labels, x),
    )
    report.add("status: OK", "status", "ok")


def cmd_linearize(args, report: _Report) -> None:
    data = parse_path(args.path)
    g = data.algebra
    vectors = _require(data.subalgebra_vectors, "subalgebra", "linearize")
    mu = _require(data.mu, "mu", "linearize")
    p = _span_or_fail(g, vectors)
    try:
        st = linearize(g, p, mu)
    except DegenerateFormError as exc:
        raise _Failure(str(exc))
    out = StructureData(
        algebra=g,
        name=data.name,
        r=st.r,
        psi=st.psi,
        subalgebra_vectors=p.basis,
        mu=mu,
    )
    _emit_structure(args, report, serialize(out))


def cmd_catalog(args, report: _Report) -> None:
    try:
        entry = get_entry(args.name, args.n)
    except (KeyError, ValueError) as exc:
        raise StructureFileError(str(exc))
    if not args.check:
        _emit_structure(args, report, serialize(from_catalog_entry(entry)))
        return
    g = entry.g
    mc = entry.compute_report()
    failures = entry.check_expected()
    report.add(f"entry: {entry.name}" + (f" (n={entry.n})" if entry.n else ""), "entry", entry.name)
    if entry.n is not None:
        report.payload["n"] = entry.n
    report.add(f"carrier dim: {mc.carrier.dim}", "carrier_dim", mc.carrier.dim)
    report.add(
        "representative: " + combination_str(mc.representative, g.labels),
        "representative",
        _vector_json(g.labels, mc.representative),
    )
    if failures:
        report.add("expected values: MISMATCH " + ", ".join(failures), "mismatches", failures)
        raise _Failure("catalog entry failed its expected values")
    report.add("expected values: match", "mismatches", [])
    report.add("status: OK", "status", "ok")


def _dispatch(command, args) -> int:
    """Run one single-input command and emit its report.

    Malformed input exits 2, with the text report on stderr; a failed
    mathematical check exits 1.
    """
    report = _Report(args.command)
    try:
        command(args, report)
    except StructureFileError as exc:
        report.add(f"malformed input: {exc}", "status", "malformed")
        report.payload["error"] = str(exc)
        report.emit(args.format, stream=sys.stderr if args.format != "json" else sys.stdout)
        return EXIT_BAD_INPUT
    except _Failure as exc:
        report.add(f"status: FAILED ({exc})", "status", "failed")
        report.payload["error"] = str(exc)
        report.payload.update(exc.detail)
        report.emit(args.format)
        return EXIT_FAIL
    report.emit(args.format)
    return EXIT_OK


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="modclass",
        description="Verify twisted triangular r-matrix structures and compute modular classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="report format (default: text)",
        )

    p = sub.add_parser("verify", help="check closedness, Yang-Baxter, and structural invariants")
    p.add_argument("paths", nargs="+", metavar="PATH")
    p.add_argument("--all", action="store_true", help="verify several files or directories")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("modular", help="full modular-class report")
    p.add_argument("path", metavar="PATH")
    add_format(p)
    p.set_defaults(func=partial(_dispatch, cmd_modular))

    p = sub.add_parser("frobenius", help="solve for the modular representative of a Frobenius pair")
    p.add_argument("path", metavar="PATH")
    add_format(p)
    p.set_defaults(func=partial(_dispatch, cmd_frobenius))

    p = sub.add_parser("linearize", help="build (r, psi) from a subalgebra and a 2-cochain")
    p.add_argument("path", metavar="PATH")
    p.add_argument("--output", "-o", metavar="FILE", help="write the structure file here")
    add_format(p)
    p.set_defaults(func=partial(_dispatch, cmd_linearize))

    p = sub.add_parser("catalog", help="emit or check a built-in example")
    p.add_argument("name", choices=entry_names(), metavar="NAME")
    p.add_argument("--n", type=int, default=None, help="size parameter for the gl/sl families")
    p.add_argument("--check", action="store_true", help="recompute and compare expected values")
    p.add_argument("--output", "-o", metavar="FILE", help="write the structure file here")
    add_format(p)
    p.set_defaults(func=partial(_dispatch, cmd_catalog))

    p = sub.add_parser("relations", help="check the trace identities relating the modular classes")
    p.add_argument("path", metavar="PATH")
    add_format(p)
    p.set_defaults(func=partial(_dispatch, cmd_relations))

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
