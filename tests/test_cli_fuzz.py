"""The exit-code contract on hostile input: 0, 1 or 2, never a traceback.

Every single-input command runs on mutated catalog files (lines dropped,
truncated, or with a token swapped for a hostile one) and on raw bytes.
"""

import contextlib
import io
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from modclass.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEEDS = {
    name: (GOLDEN / f"{name}.lie").read_text(encoding="utf-8")
    for name in ("affine", "q2", "q3", "gg2", "gg3")
}
COMMANDS = ("verify", "modular", "relations", "frobenius", "linearize")
TOKENS = (
    "1/0",
    "0/0",
    "[xi]",
    "[mu]",
    "[subalgebra]",
    "[r]",
    "[algebra]",
    "dim = 0",
    "dim = 2",
    "labels = a",
    "vector = 0",
    "0",
    "-",
    "=",
    "1/3",
    "-2",
    "e12",
    "h1",
    "0.5",
    "7" * 5000,
    "\x00",
)


@st.composite
def mutated_catalog_files(draw) -> str:
    lines = SEEDS[draw(st.sampled_from(sorted(SEEDS)))].splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("drop", "truncate", "swap", "insert")))
        if kind == "drop":
            del lines[i]
        elif kind == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        elif kind == "swap":
            words = lines[i].split(" ")
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(words)
        else:
            lines.insert(i, draw(st.sampled_from(TOKENS)))
    return "\n".join(lines) + "\n"


def _exit_codes(path: Path, data: bytes) -> list[int]:
    path.write_bytes(data)
    codes = []
    for command in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main([command, str(path)]))
    return codes


@settings(deadline=None, max_examples=60)
@given(text=mutated_catalog_files())
# a zero denominator in a bracket line, and an empty subalgebra with a [xi]
@example(text=SEEDS["gg2"].replace("bracket e12 e21 = h1", "bracket e12 e21 = 1/0 h1"))
@example(text=SEEDS["gg2"].replace("vector = e12\nvector = h1\n", ""))
def test_mutated_catalog_files(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "input.lie"
    assert set(_exit_codes(path, text.encode("utf-8"))) <= {0, 1, 2}


@settings(deadline=None, max_examples=60)
@given(data=st.binary(max_size=300))
def test_raw_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "input.lie"
    assert set(_exit_codes(path, data)) <= {0, 1, 2}
