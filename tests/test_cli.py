import contextlib
import io
import json
import sys
from collections import OrderedDict
from fractions import Fraction

import pytest

import modclass.twisted
from modclass.catalog import affine_example, gl, q_example
from modclass import structfile
from modclass.liealg import (
    Cochain,
    LieAlgebra,
    Multivector,
    Subalgebra,
    ce_differential,
    span_subalgebra,
)
from modclass.twisted import TwistedTriangularStructure, carrier_and_kernel
from modclass.cli import _parser, main
from modclass.structfile import StructureData, from_catalog_entry, parse, serialize
from test_golden import RECORD, case_id, run_case

JACOBI_VIOLATOR = (
    "[algebra]\nlabels = x y z\n"
    "bracket x y = y\nbracket x z = z\nbracket y z = x\n"
)


# a Heisenberg file whose Yang-Baxter residual has about 6000 digits: each
# literal is below the int conversion limit, their product is far above it
LONG_LITERAL = "7" * 3000
HEISENBERG_LONG_R = (
    "[algebra]\nlabels = x y z\nbracket x y = z\n[r]\nterm x y = " + LONG_LITERAL + "\n"
)


def _digits_value(text: str) -> Fraction:
    """An exact rational from its printed digits, without int(str)."""
    sign = -1 if text.startswith("-") else 1
    num, _, den = text.lstrip("-").partition("/")

    def value(digits):
        out = 0
        for d in digits:
            out = 10 * out + "0123456789".index(d)
        return out

    return Fraction(sign * value(num), value(den) if den else 1)


@pytest.fixture()
def long_residual_file(tmp_path):
    from modclass.liealg import LieAlgebra, Multivector
    from oracles import cybe_lhs_trivector_fraction

    path = tmp_path / "heisenberg_long.lie"
    path.write_text(HEISENBERG_LONG_R, encoding="utf-8")
    g = LieAlgebra(["x", "y", "z"], {(0, 1): {2: 1}})
    coeff = Fraction(10 ** 3000 - 1, 9) * 7
    residual = cybe_lhs_trivector_fraction(g, Multivector(3, 2, {(0, 1): coeff}))
    expected = residual.coefficient(0, 1, 2)
    assert abs(expected.numerator).bit_length() > 3.33 * sys.get_int_max_str_digits()
    return path, expected


@pytest.fixture()
def affine_file(tmp_path):
    path = tmp_path / "affine.lie"
    path.write_text(serialize(from_catalog_entry(affine_example())), encoding="utf-8")
    return path


@pytest.fixture()
def affine_no_twist_file(tmp_path, affine_file):
    data = parse(affine_file.read_text(encoding="utf-8"))
    stripped = type(data)(
        algebra=data.algebra,
        name=data.name,
        r=data.r,
        psi=None,
        subalgebra_vectors=data.subalgebra_vectors,
        mu=data.mu,
        xi=data.xi,
    )
    path = tmp_path / "affine_nopsi.lie"
    path.write_text(serialize(stripped), encoding="utf-8")
    return path


class TestVerify:
    def test_affine_verifies(self, affine_file, capsys):
        assert main(["verify", str(affine_file)]) == 0
        out = capsys.readouterr().out
        assert "status: VERIFIED" in out

    def test_zeroed_twist_fails_with_residual(self, affine_no_twist_file, capsys):
        assert main(["verify", str(affine_no_twist_file)]) == 1
        out = capsys.readouterr().out
        assert "yang-baxter: FAIL" in out
        assert "residual" in out and "e11^e13^e23" in out

    def test_jacobi_violator_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.lie"
        path.write_text(JACOBI_VIOLATOR, encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        out = capsys.readouterr().out
        assert "Jacobi" in out and "('x', 'y', 'z')" in out

    @pytest.mark.parametrize(
        "block, message",
        [
            ("labels = x y\nlabels = z\n", "line 3: duplicate labels line in [algebra]"),
            ("dim = 2\nlabels = x y\ndim = 2\n", "line 4: duplicate dim line in [algebra]"),
        ],
        ids=["labels", "dim"],
    )
    def test_second_labels_or_dim_line_exits_2(self, tmp_path, capsys, block, message):
        path = tmp_path / "twice.lie"
        path.write_text(f"[algebra]\n{block}bracket x y = y\n[r]\nterm x y = 1\n", encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert message in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["verify", str(tmp_path / "absent.lie")]) == 2

    def test_overlong_literal_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.lie"
        path.write_text(
            "[algebra]\nlabels = x y\nbracket x y = y\n[r]\nterm x y = " + "7" * 5000 + "\n",
            encoding="utf-8",
        )
        assert main(["verify", str(path)]) == 2
        out = capsys.readouterr().out
        assert "line 5: rational literal too long" in out

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[algebra]\nlabels = a b\nbracket a b = 1/0 b\n", "line 3: zero denominator in '1/0'"),
            (
                "[algebra]\nlabels = a b\nbracket a b = b\n[r]\nterm a b = 3/0\n",
                "line 5: zero denominator in '3/0'",
            ),
        ],
        ids=["bracket", "term"],
    )
    def test_zero_denominator_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "zero.lie"
        path.write_text(text, encoding="utf-8")
        for command in ("verify", "modular", "relations", "frobenius", "linearize"):
            assert main([command, str(path)]) == 2
            captured = capsys.readouterr()
            assert message in captured.out + captured.err

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.lie"
        path.write_bytes(b"[algebra]\nlabels = x \xff y\n")
        assert main(["verify", str(path)]) == 2
        out = capsys.readouterr().out
        assert "not UTF-8" in out

    def test_all_flag_over_directory(self, tmp_path, affine_file, capsys):
        assert main(["verify", "--all", str(tmp_path)]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_all_flag_worst_exit_code(self, affine_file, affine_no_twist_file, capsys):
        code = main(["verify", "--all", str(affine_file), str(affine_no_twist_file)])
        assert code == 1
        out = capsys.readouterr().out
        assert "VERIFIED" in out and "FAILED" in out

    def test_multiple_inputs_need_all(self, affine_file):
        assert main(["verify", str(affine_file), str(affine_file)]) == 2

    def test_json_format(self, affine_file, capsys):
        assert main(["verify", str(affine_file), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "verified"
        assert payload["yang_baxter"] is True

    @pytest.mark.parametrize(
        "command, name, fmt",
        [
            # the verify cases keep the ids they had before modular and
            # relations joined them
            pytest.param(
                command,
                name,
                fmt,
                id=f"{name}-{fmt}" if command == "verify" else f"{command}-{name}-{fmt}",
            )
            for command in ("verify", "modular", "relations")
            for name in ("affine", "q3", "gg3")
            for fmt in ("text", "json")
        ],
    )
    def test_builds_no_dual_table(self, monkeypatch, command, name, fmt):
        # verify takes the homomorphism and dual Jacobi verdicts from the
        # zero Yang-Baxter residual, and modular and relations read the dual
        # through closed forms along r#; every route to the dual table goes
        # through _dual_table, so a command that built it would raise here;
        # the table is _dual_brackets at every unit vector, and the
        # cocycle_on_dual check of modular pairs with the representative alone
        twisted = modclass.twisted
        dual_table, dual_brackets = twisted._dual_table, twisted._dual_brackets

        def refuse(structure):
            raise AssertionError("the dual table was built")

        def one_vector(structure, vectors):
            if len(vectors) > 1:
                raise AssertionError("dual brackets paired with more than one vector")
            return dual_brackets(structure, vectors)

        monkeypatch.setattr(twisted, "_dual_table", refuse)
        monkeypatch.setattr(twisted, "_dual_brackets", one_vector)
        expected = json.loads(RECORD.read_text(encoding="utf-8"))
        assert run_case(command, fmt, name) == expected[case_id(command, fmt, name)]
        # both patches are live: dual_lie_algebra reads the table, and the
        # table reads _dual_brackets at every unit vector at once
        structure = affine_example().structure
        with pytest.raises(AssertionError, match="dual table"):
            twisted.dual_lie_algebra(structure)
        monkeypatch.setattr(twisted, "_dual_table", dual_table)
        with pytest.raises(AssertionError, match="more than one vector"):
            twisted.dual_lie_algebra(structure)


class TestCarrierTable:
    """On a verified structure the carrier is closed by theorem, so no
    command checks its closure (``Subalgebra.check_closed``)."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("name", ["affine", "q3", "gg3"])
    @pytest.mark.parametrize("command", ["verify", "modular", "relations"])
    def test_builds_no_carrier_table(self, monkeypatch, command, name, fmt):
        def refuse(self):
            raise AssertionError("the carrier closure was checked")

        # an unverified perturbed structure, built before the patch, since
        # the catalog checks the closure of its subalgebras
        base = affine_example().structure
        r = base.r + Multivector(base.g.dim, 2, {(0, 1): Fraction(1)})
        unverified = TwistedTriangularStructure.unchecked(base.g, r, base.psi)
        monkeypatch.setattr(Subalgebra, "check_closed", refuse)
        expected = json.loads(RECORD.read_text(encoding="utf-8"))
        assert run_case(command, fmt, name) == expected[case_id(command, fmt, name)]
        # the patch is live: the unverified structure gets the closure check
        with pytest.raises(AssertionError, match="carrier closure"):
            carrier_and_kernel(unverified)


class TestNoDenseBasis:
    """No report builds the dense basis of a subalgebra (``Subalgebra.basis``):
    the carrier is printed and compared from its sparse rows."""

    @pytest.fixture(autouse=True)
    def refuse_basis(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a dense basis was built")

        monkeypatch.setattr(Subalgebra, "basis", property(refuse))

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("name", ["affine", "q3", "gg3"])
    @pytest.mark.parametrize("command", ["verify", "modular", "relations", "frobenius"])
    def test_reports_without_dense_basis(self, command, name, fmt):
        expected = json.loads(RECORD.read_text(encoding="utf-8"))
        assert run_case(command, fmt, name) == expected[case_id(command, fmt, name)]
        # the patch is live: the structure file of an entry prints the basis
        with pytest.raises(AssertionError, match="dense basis"):
            from_catalog_entry(affine_example())

    def test_catalog_check_without_dense_basis(self, capsys):
        assert main(["catalog", "q", "--n", "3", "--check"]) == 0
        assert "expected values: match" in capsys.readouterr().out


class TestCarrierLabels:
    """A generated carrier label ``v{s}`` that is also a label of the algebra
    takes primes, so reports keep one entry per carrier basis vector."""

    @pytest.fixture()
    def colliding_file(self, tmp_path):
        # gl(3) with e33 renamed v0: the carrier row e11 + e22 is named v0
        g3 = gl(3)
        g = LieAlgebra([lab.replace("e33", "v0") for lab in g3.labels], g3.table)
        text = serialize(StructureData(algebra=g)) + (
            "[subalgebra]\nvector = e11 + e22\nvector = e12\nvector = e32\nvector = v0\n"
            "[mu]\nterm e11 e12 = 1\nterm e32 v0 = 1\n"
        )
        source, target = tmp_path / "collide.lie", tmp_path / "collide-lin.lie"
        source.write_text(text, encoding="utf-8")
        assert main(["linearize", str(source), "-o", str(target)]) == 0
        return target

    def test_labels_are_distinct(self, colliding_file):
        data = parse(colliding_file.read_text(encoding="utf-8"))
        carrier, _ = carrier_and_kernel(TwistedTriangularStructure(data.algebra, data.r, data.psi))
        assert carrier.labels() == ("v0'", "e12", "e32", "v0")

    def test_text_report_keeps_both_terms(self, colliding_file, capsys):
        capsys.readouterr()
        assert main(["modular", str(colliding_file)]) == 0
        out = capsys.readouterr().out
        assert "character on kernel: - v0'* + v0*" in out
        assert "character on quotient: v0'* - v0*" in out

    def test_json_report_keeps_both_values(self, colliding_file, capsys):
        capsys.readouterr()
        assert main(["modular", str(colliding_file), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["chi_kernel"] == {"v0'": "-1", "v0": "1"}
        assert payload["chi_quotient"] == {"v0'": "1", "v0": "-1"}


class TestNoSparseBracket:
    """No report reads a bracket of two vectors (``LieAlgebra.bracket``):
    closure, xi([., .]) and the characters read the integer table, and the
    bracket is formed only for the witness of a span that is not closed."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("name", ["affine", "q3", "gg3"])
    @pytest.mark.parametrize("command", ["verify", "frobenius", "linearize"])
    def test_reports_without_bracket(self, monkeypatch, command, name, fmt):
        def refuse(self, x, y):
            raise AssertionError("a bracket was formed")

        monkeypatch.setattr(LieAlgebra, "bracket", refuse)
        expected = json.loads(RECORD.read_text(encoding="utf-8"))
        assert run_case(command, fmt, name) == expected[case_id(command, fmt, name)]
        # the patch is live: the witness of a span that is not closed
        g = affine_example().g
        units = [g.basis_vector(g.index(lab)) for lab in ("e12", "e23")]
        with pytest.raises(AssertionError, match="bracket was formed"):
            span_subalgebra(g, units)


class TestMaskIndex:
    """``ce_differential`` builds the mask index of an algebra only for a
    nonzero cochain, so verifying a zero psi leaves it unbuilt."""

    def test_zero_psi_builds_no_mask_index(self, monkeypatch):
        monkeypatch.setattr(structfile, "_algebras", OrderedDict())
        expected = json.loads(RECORD.read_text(encoding="utf-8"))
        assert run_case("verify", "text", "gg3") == expected[case_id("verify", "text", "gg3")]
        (g,) = structfile._algebras.values()
        assert g.integer_table()._masks is None
        # the check is live: a nonzero cochain builds it
        ce_differential(g, Cochain.basis(g.dim, 0))
        assert g.integer_table()._masks is not None


class TestLongCoefficients:
    """A report coefficient too long for str(int) is still written exactly."""

    @pytest.mark.parametrize("command", ["verify", "modular", "relations"])
    def test_text_report(self, long_residual_file, command, capsys):
        path, expected = long_residual_file
        assert main([command, str(path)]) == 1
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("  residual x^y^z = "))
        assert _digits_value(line.split(" = ")[1]) == expected
        assert "status: FAILED (twisted Yang-Baxter equation fails)" in out

    def test_linearize_writes_long_coefficients(self, tmp_path, capsys):
        # the inverse of a Gram matrix with 2200-digit entries has longer ones
        from modclass.frobenius import linearize
        from modclass.liealg import LieAlgebra, whole_algebra

        long = "7" * 2200
        values = {"a b": long + "1", "a c": long + "3", "a d": long + "7",
                  "b c": long + "9", "b d": "3" + long, "c d": "1" + long}
        path = tmp_path / "long_mu.lie"
        path.write_text(
            "[algebra]\nlabels = a b c d\n[subalgebra]\n"
            + "".join(f"vector = {x}\n" for x in "abcd")
            + "[mu]\n" + "".join(f"term {k} = {v}\n" for k, v in values.items()),
            encoding="utf-8",
        )
        assert main(["linearize", str(path)]) == 0
        out = capsys.readouterr().out
        g = LieAlgebra(list("abcd"), {})
        mu = parse(path.read_text(encoding="utf-8")).mu
        r = linearize(g, whole_algebra(g), mu).r
        printed = {
            tuple(line[len("term "):].split(" = ")[0].split()): line.split(" = ")[1]
            for line in out.split("[psi]")[0].splitlines()
            if line.startswith("term ")
        }
        assert {k: _digits_value(v) for k, v in printed.items()} == {
            tuple("abcd"[i] for i in idx): c for idx, c in r.terms.items()
        }
        assert max(len(v) for v in printed.values()) > sys.get_int_max_str_digits()

    def test_verify_json(self, long_residual_file, capsys):
        path, expected = long_residual_file
        assert main(["verify", str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "failed"
        (term,) = payload["residual"]
        assert term["indices"] == ["x", "y", "z"]
        assert _digits_value(term["coefficient"]) == expected


class TestModular:
    def test_affine_report(self, affine_file, capsys):
        assert main(["modular", str(affine_file)]) == 0
        out = capsys.readouterr().out
        assert "representative: 0" in out
        assert "carrier dim: 4" in out

    def test_q3_report_values(self, tmp_path, capsys):
        path = tmp_path / "q3.lie"
        path.write_text(serialize(from_catalog_entry(q_example(3))), encoding="utf-8")
        assert main(["modular", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["representative"] == {"e13": "-1", "e23": "-1"}
        assert all(isinstance(v, str) for v in payload["representative"].values())

    def test_rejects_invalid_structure(self, affine_no_twist_file):
        assert main(["modular", str(affine_no_twist_file)]) == 1


class TestRelations:
    def test_affine(self, affine_file, capsys):
        assert main(["relations", str(affine_file)]) == 0
        out = capsys.readouterr().out
        assert out.count(": 0") >= 3

    def test_zero_carrier(self, tmp_path, capsys):
        # r = 0 and psi = 0 on gl(3): the carrier is the zero subalgebra
        from modclass.catalog import gl
        from modclass.liealg import Cochain, Multivector
        from modclass.structfile import StructureData

        path = tmp_path / "gl3_zero.lie"
        data = StructureData(algebra=gl(3), r=Multivector.zero(9, 2), psi=Cochain.zero(9, 3))
        path.write_text(serialize(data), encoding="utf-8")
        assert main(["relations", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-4:] == [
            "modular_vs_relative: 0",
            "dual_vs_carrier: 0",
            "restriction_vs_carrier: 0",
            "status: OK",
        ]
        assert main(["relations", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["modular_vs_relative"] == {}
        assert payload["dual_vs_carrier"] == {}
        assert payload["restriction_vs_carrier"] == {}
        assert payload["status"] == "ok"


class TestFrobenius:
    def test_gg3(self, tmp_path, capsys):
        from modclass.catalog import gg_example

        path = tmp_path / "gg3.lie"
        path.write_text(serialize(from_catalog_entry(gg_example(3))), encoding="utf-8")
        assert main(["frobenius", str(path)]) == 0
        out = capsys.readouterr().out
        assert "frobenius: yes" in out
        assert "- 2 e12 - e23" in out

    def test_missing_xi_is_bad_input(self, tmp_path):
        path = tmp_path / "q3.lie"
        path.write_text(serialize(from_catalog_entry(q_example(3))), encoding="utf-8")
        assert main(["frobenius", str(path)]) == 2

    def test_degenerate_pair_fails(self, tmp_path, capsys):
        text = (
            "[algebra]\nlabels = a b\n"  # abelian
            "[subalgebra]\nvector = a\nvector = b\n"
            "[xi]\nterm a = 1\n"
        )
        path = tmp_path / "abelian.lie"
        path.write_text(text, encoding="utf-8")
        assert main(["frobenius", str(path)]) == 1
        assert "degenerate" in capsys.readouterr().out

    def test_empty_subalgebra_is_degenerate(self, tmp_path, capsys):
        # the same verdict as linearize on an empty subalgebra, and no witness
        head = "[algebra]\nlabels = a b\nbracket a b = b\n[subalgebra]\n"
        frob = tmp_path / "empty_xi.lie"
        frob.write_text(head + "[xi]\n", encoding="utf-8")
        lin = tmp_path / "empty_mu.lie"
        lin.write_text(head + "[mu]\n", encoding="utf-8")
        verdict = "the empty form on a zero subalgebra is degenerate"
        assert main(["frobenius", str(frob)]) == 1
        assert capsys.readouterr().out == f"frobenius: no\nstatus: FAILED ({verdict})\n"
        assert main(["frobenius", str(frob), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["frobenius"] is False and payload["error"] == verdict
        assert "kernel_witness" not in payload
        assert main(["linearize", str(lin)]) == 1
        assert verdict in capsys.readouterr().out

    def test_unclosed_span_names_the_witness(self, tmp_path, capsys):
        text = (
            "[algebra]\nlabels = e11 e12 e21 e22\n"
            "bracket e11 e12 = e12\nbracket e11 e21 = - e21\n"
            "bracket e12 e21 = e11 - e22\nbracket e12 e22 = e12\n"
            "bracket e21 e22 = - e21\n"
            "[subalgebra]\nvector = e12\nvector = e21\n"
            "[xi]\nterm e12 = 1\n"
        )
        path = tmp_path / "unclosed.lie"
        path.write_text(text, encoding="utf-8")
        assert main(["frobenius", str(path)]) == 1
        out = capsys.readouterr().out
        assert "bracket of (e12) and (e21) is e11 - e22" in out


class TestLinearize:
    def test_pipeline_output_verifies(self, tmp_path, affine_file, capsys):
        out_path = tmp_path / "derived.lie"
        assert main(["linearize", str(affine_file), "-o", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out_path)]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_stdout_mode_round_trips(self, affine_file, capsys):
        assert main(["linearize", str(affine_file)]) == 0
        text = capsys.readouterr().out
        data = parse(text)
        entry = affine_example()
        assert data.r == entry.printed_r
        assert data.psi == entry.printed_psi1

    def test_degenerate_restriction_fails(self, tmp_path, capsys):
        text = (
            "[algebra]\nlabels = x y\nbracket x y = y\n"
            "[subalgebra]\nvector = x\n"
            "[mu]\nterm x y = 1\n"
        )
        path = tmp_path / "degen.lie"
        path.write_text(text, encoding="utf-8")
        assert main(["linearize", str(path)]) == 1

    def test_unwritable_output_exits_2(self, tmp_path, affine_file, capsys):
        target = tmp_path / "no_such_dir" / "out.lie"
        assert main(["linearize", str(affine_file), "-o", str(target)]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {target}" in err
        assert not target.exists()

    def test_missing_mu_is_bad_input(self, affine_file, tmp_path):
        data = parse(affine_file.read_text(encoding="utf-8"))
        stripped = type(data)(
            algebra=data.algebra,
            name=data.name,
            r=data.r,
            psi=data.psi,
            subalgebra_vectors=data.subalgebra_vectors,
        )
        path = tmp_path / "nomu.lie"
        path.write_text(serialize(stripped), encoding="utf-8")
        assert main(["linearize", str(path)]) == 2


class TestMissingSubalgebra:
    TEXT = "[algebra]\nlabels = x y\nbracket x y = y\n[xi]\nterm x = 1\n[mu]\nterm x y = 1\n"

    @pytest.mark.parametrize("command", ["frobenius", "linearize"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_names_the_file_section(self, tmp_path, capsys, command, fmt):
        # the message names the section a file can hold, not the field of
        # the parsed data that keeps its vectors
        path = tmp_path / "nosub.lie"
        path.write_text(self.TEXT, encoding="utf-8")
        assert main([command, str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        message = f"the {command} command requires a [subalgebra] section"
        if fmt == "json":
            assert json.loads(captured.out) == {
                "command": command,
                "status": "malformed",
                "error": message,
            }
        else:
            assert captured.out == ""
            assert captured.err == f"malformed input: {message}\n"
        assert parse(self.TEXT + "[subalgebra]\nvector = x\n").subalgebra_vectors


class TestCatalog:
    def test_emit_and_verify(self, tmp_path, capsys):
        out = tmp_path / "q2.lie"
        assert main(["catalog", "q", "--n", "2", "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0

    def test_check_gg3(self, capsys):
        assert main(["catalog", "gg", "--n", "3", "--check"]) == 0
        out = capsys.readouterr().out
        assert "- 2 e12 - e23" in out
        assert "expected values: match" in out

    def test_check_gg3_json_coordinates(self, capsys):
        assert main(["catalog", "gg", "--n", "3", "--check", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["representative"] == {"e12": "-2", "e23": "-1"}
        assert payload["mismatches"] == []

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        target = tmp_path / "no_such_dir" / "affine.lie"
        assert main(["catalog", "affine", "-o", str(target), "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "malformed"
        assert payload["error"].startswith(f"cannot write {target}")

    def test_affine_rejects_n(self):
        assert main(["catalog", "affine", "--n", "3"]) == 2

    def test_q_requires_n(self):
        assert main(["catalog", "q"]) == 2


class TestReportHygiene:
    def test_no_floating_point_in_reports(self, tmp_path, capsys):
        path = tmp_path / "q3.lie"
        path.write_text(serialize(from_catalog_entry(q_example(3))), encoding="utf-8")
        main(["modular", str(path)])
        main(["modular", str(path), "--format", "json"])
        out = capsys.readouterr().out
        assert "float" not in out
        payload_part = out[out.index("{") :]
        payload = json.loads(payload_part)

        def walk(x):
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            elif isinstance(x, list):
                for v in x:
                    walk(v)
            else:
                assert not isinstance(x, float), x

        walk(payload)


def _help_text(parse, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as info:
        parse(argv)
    assert info.value.code == 0
    return out.getvalue()


class TestOneParser:
    """``main`` parses every call with one parser built per process."""

    CASES = [(c, f, n) for c in ("verify", "modular", "linearize") for f in ("text", "json")
             for n in ("q3", "gg3")]

    def test_repeated_calls_give_identical_output(self):
        first = [run_case(*case) for case in self.CASES]
        for _ in range(2):
            assert [run_case(*case) for case in self.CASES] == first
        record = json.loads(RECORD.read_text(encoding="utf-8"))
        assert first == [record[case_id(*case)] for case in self.CASES]

    def test_usage_error_then_valid_call(self, affine_file, capsys):
        expected = run_case("modular", "json", "q3")
        with pytest.raises(SystemExit) as info:
            main(["modular", "--nosuchflag", str(affine_file)])
        assert info.value.code == 2
        assert "unrecognized arguments: --nosuchflag" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["nosuchcommand"])
        assert run_case("modular", "json", "q3") == expected

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["catalog", "--help"]])
    def test_help_matches_a_fresh_parser(self, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "100")
        fresh = _help_text(_parser.__wrapped__().parse_args, argv)
        assert fresh.startswith("usage: modclass")
        assert _help_text(main, argv) == fresh
        run_case("verify", "text", "q3")
        assert _help_text(main, argv) == fresh
        assert _parser() is _parser()
