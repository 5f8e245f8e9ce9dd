"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload with q(3), gg(3), a handful of corpus files and five
linearizations, traced and untraced, and checks that:

* every metric BENCHMARK.json names is printed, with its unit, and no other;
* the seed code answers correctly and the coefficient counters repeat exactly;
* the correctness gate trips on a deliberately wrong expected
  representative and on a wrong expected exit code;
* without the library next to it, run.py exits nonzero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import TINY  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"SELFTEST FAIL: {message}")
    print(f"ok - {message}")


def check_metrics(result: dict, declared: list[dict], what: str) -> None:
    printed = result["metrics"]
    check(
        sorted(printed) == sorted(m["name"] for m in declared),
        f"{what}: exactly the declared metrics are printed",
    )
    check(
        all(printed[m["name"]]["unit"] == m["unit"] for m in declared),
        f"{what}: every metric carries its declared unit",
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        result, context = run.run(name, 7, 0, False, sizes=TINY)
        check(result["correct"] and result["failed"] == 0, f"{name}: correct, untraced")
        check_metrics(result, spec["end_to_end"], f"{name} untraced")
        check(
            all(m["value"] > 0 for m in result["metrics"].values()),
            f"{name}: every end-to-end metric is nonzero",
        )
        traced = [run.run(name, 7, 0, True, sizes=TINY) for _ in range(2)]
        for result, context in traced:
            check(result["correct"], f"{name}: correct, traced")
            check_metrics(result, spec["per_layer"], f"{name} traced")
        counters = [
            {k: r["metrics"][k]["value"] for k in ("coeff.max_num_bits", "coeff.max_den_bits")}
            for r, _ in traced
        ]
        check(counters[0] == counters[1], f"{name}: coefficient counters repeat exactly")
        check(
            traced[0][1]["coeff_bits_by_stage"] == traced[1][1]["coeff_bits_by_stage"],
            f"{name}: per-stage coefficient counters repeat exactly",
        )
        check(
            traced[0][1]["input_sha256"] == context["input_sha256"],
            f"{name}: one seed gives one input hash",
        )

    workdir = run.WORK_DIR / "selftest"
    try:
        _, wl, _ = run.set_up("catalog-n6", 7, TINY, workdir)
        wrong = wl.items[0].representative
        label = next(iter(wrong))
        wl.items[0].representative = dict(wrong, **{label: wrong[label] + Fraction(1)})
        failures = [f for p in run.run_passes(wl, 0) for f in p["failures"]]
        check(
            len(set(failures)) == 1 and "representative" in failures[0],
            "the gate trips on a wrong expected representative",
        )
        _, wl, _ = run.set_up("verify-corpus", 7, TINY, workdir)
        wl.items[0].code = 3
        failures = [f for p in run.run_passes(wl, 0) for f in p["failures"]]
        check(
            len(set(failures)) == 1 and "exit code" in failures[0],
            "the gate trips on a wrong expected exit code",
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    bare = run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "catalog-n6",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(
            proc.returncode != 0 and not proc.stdout.strip(),
            "without the library, run.py exits nonzero and prints no result",
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
