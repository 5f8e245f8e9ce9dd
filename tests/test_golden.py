"""Golden CLI outputs: stdout, stderr and exit code of every report command.

The inputs are the catalog files for affine, q(2..4) and gg(2..4), stored
under ``tests/golden/`` (written from the catalog when absent); the
recorded outputs are in ``tests/golden/cli_outputs.json``.  A change that
alters any report, even by one character, fails here.  After an intended change to the report
contents, regenerate the record from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``cli_outputs.json``.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from modclass.cli import main

GOLDEN = Path(__file__).parent / "golden"
RECORD = GOLDEN / "cli_outputs.json"
INPUTS = ["affine", "q2", "q3", "q4", "gg2", "gg3", "gg4"]
COMMANDS = ["verify", "modular", "relations", "frobenius", "linearize"]
FORMATS = ["text", "json"]


def case_id(command: str, fmt: str, name: str) -> str:
    return f"{command} {fmt} {name}"


def run_case(command: str, fmt: str, name: str) -> dict:
    """Run one command in-process from inside the golden directory.

    The input is given by its bare file name, so reports that echo the
    path read the same on every checkout.
    """
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, f"{name}.lie", "--format", fmt])
    finally:
        os.chdir(cwd)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _record() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", INPUTS)
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
def test_matches_golden(command, fmt, name):
    expected = _record()[case_id(command, fmt, name)]
    assert run_case(command, fmt, name) == expected


def test_record_covers_every_case():
    cases = {case_id(c, f, n) for c in COMMANDS for f in FORMATS for n in INPUTS}
    assert set(_record()) == cases


def _write_inputs() -> None:
    from modclass.catalog import affine_example, gg_example, q_example
    from modclass.structfile import from_catalog_entry, serialize

    entries = {"affine": affine_example()}
    entries.update({f"q{n}": q_example(n) for n in (2, 3, 4)})
    entries.update({f"gg{n}": gg_example(n) for n in (2, 3, 4)})
    for name, entry in entries.items():
        path = GOLDEN / f"{name}.lie"
        if not path.exists():
            path.write_text(serialize(from_catalog_entry(entry)), encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    _write_inputs()
    record = {
        case_id(c, f, n): run_case(c, f, n)
        for c in COMMANDS
        for f in FORMATS
        for n in INPUTS
    }
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
