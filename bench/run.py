"""Benchmark of the modclass library: one workload per run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload catalog-n6 --seed 1 --seconds 15 --trace 0

The run imports the library from ``src/``, generates the workload's inputs
from the seed (bench/workloads.py says what each workload is and why),
repeats whole passes over them for ``--seconds`` of wall time (at least
``MIN_PASSES``), checks every output exactly, and prints two JSON lines: a
context line (input hash, program hash, git sha, Python, nproc, platform,
sample counts, raw wall times, per-entry times, failures) and, last, the
result.  Single process, single thread, one caller in a closed loop.

With ``--trace 0`` the result carries the end-to-end metrics:

* ``wall_s``: one pass over the items, median over the passes;
* ``items_per_s``: items timed divided by the seconds they took;
* ``item_p50_ms``, ``item_tail_ms``: the median and the workload's tail
  percentile (``TAIL_PERCENTILE``) of the per-item times;
* ``setup_s``: import plus input generation, median of its repeats;
* ``peak_rss_mb``: the process's own ``ru_maxrss``.

Times are in reference seconds (see bench/clock.py): raw intervals
corrected for the host's speed, which on a shared host swings by a factor
of two.  The raw figures are on the context line.  With ``--trace 1`` the
untraced phase runs first, then a traced phase of the same length, and the
result carries the per-layer metrics (bench/tracer.py) instead, with the
tracing overhead as traced minus untraced ``wall_s``.

Exit status: 0 when every output is correct, 1 when any is wrong (the
result then reads ``"correct": false``), 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from clock import CalibratedClock  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402
from workloads import FULL, MIN_PASSES, TAIL_PERCENTILE, WORKLOADS  # noqa: E402

# Set-up (import plus input generation) is repeated at least SETUP_REPEATS
# times and for at least SETUP_SECONDS, and its median reported; a set-up
# that is only the import takes milliseconds and needs many repeats.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
WORK_DIR = ROOT / ".bench_work"


def import_library() -> SimpleNamespace:
    """A fresh import of every modclass module."""
    for name in [m for m in sys.modules if m == "modclass" or m.startswith("modclass.")]:
        del sys.modules[name]
    importlib.import_module("modclass")
    return SimpleNamespace(
        **{m: importlib.import_module(f"modclass.{m}") for m in MODULES}
    )


def set_up(workload: str, seed: int, sizes, workdir):
    """Import and generate inputs repeatedly; keep the last.

    Returns the library, the workload and the interval of each set-up.
    """
    spans = []
    while len(spans) < SETUP_REPEATS or spans[-1][1] - spans[0][0] < SETUP_SECONDS:
        # free the previous repeat's modules, so that peak RSS does not
        # depend on how many repeats fit in SETUP_SECONDS
        gc.collect()
        start = perf_counter()
        lib = import_library()
        wl = WORKLOADS[workload](lib, random.Random(f"{workload}:{seed}"), sizes, workdir)
        spans.append((start, perf_counter()))
    return lib, wl, spans


def run_passes(wl, seconds: float, tracer: Tracer | None = None):
    """Whole passes until ``seconds`` of wall time are timed, and at least
    the workload's MIN_PASSES; checks run untimed.

    Each pass records the interval of every item; ``calibrate`` turns them
    into seconds once the clock has stopped.
    """
    passes = []
    elapsed = 0.0
    while len(passes) < MIN_PASSES[wl.name] or elapsed < seconds:
        outputs, intervals = [], []
        if tracer is not None:
            tracer.reset_pass()
            tracer.begin_root()
        for k, item in enumerate(wl.items):
            if tracer is not None:
                tracer.item = k
            start = perf_counter()
            try:
                outputs.append((wl.run_item(item), None))
            except Exception as exc:  # a wrong answer, counted and reported
                outputs.append((None, f"{type(exc).__name__}: {exc}"))
            intervals.append((start, perf_counter()))
        layers = None
        if tracer is not None:
            tracer.end_root()
            layers = tracer.pass_metrics()
            tracer.record = False
        failures = []
        for item, (out, error) in zip(wl.items, outputs):
            if error is None:
                try:
                    error = wl.check_item(item, out)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                failures.append(f"{wl.label(item)}: {error}")
        elapsed += intervals[-1][1] - intervals[0][0]
        passes.append({"intervals": intervals, "failures": failures, "layers": layers})
    return passes


def calibrate(clock: CalibratedClock, passes) -> None:
    for p in passes:
        p["raw"] = [clock.raw(a, b) for a, b in p["intervals"]]
        p["cal"] = [clock.calibrated(a, b) for a, b in p["intervals"]]


def percentile(samples: list[float], p: float) -> float:
    if p >= 100 or len(samples) < 2:
        return max(samples)
    return statistics.quantiles(samples, n=100, method="inclusive")[round(p) - 1]


def median_pass(passes, key: str) -> float:
    return statistics.median(sum(p[key]) for p in passes)


def end_to_end(wl, passes, setup_cal, setup_raw, speeds) -> tuple[dict, dict]:
    samples = [t for p in passes for t in p["cal"]]
    p_tail = TAIL_PERCENTILE[wl.name]
    tail = percentile(samples, p_tail)
    metrics = {
        "wall_s": (median_pass(passes, "cal"), "s"),
        "items_per_s": (len(samples) / sum(samples), "1/s"),
        "item_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "item_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setup_cal), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "passes": len(passes),
        "samples": len(samples),
        "tail_percentile": p_tail,
        "tail_samples_beyond": sum(1 for t in samples if t > tail),
        "pass_wall_s": [sum(p["cal"]) for p in passes],
        "raw_pass_wall_s": [sum(p["raw"]) for p in passes],
        "setup_samples_s": setup_cal,
        "raw_setup_samples_s": setup_raw,
        "reference_s": speeds,
    }
    if wl.name == "catalog-n6":
        extra["entry_s"] = {
            wl.label(item): statistics.median(p["cal"][k] for p in passes)
            for k, item in enumerate(wl.items)
        }
    return metrics, extra


def per_layer(tracer: Tracer, traced, untraced) -> tuple[dict, dict]:
    """Per-layer metrics of the traced passes.

    Span times are raw; each pass's are scaled by that pass's calibration
    factor so that they read in the same reference seconds as wall_s.
    """
    first = traced[0]["layers"]
    factors = [sum(p["cal"]) / sum(p["raw"]) for p in traced]
    metrics = {}
    for key, value in first.items():
        if isinstance(value, int):
            metrics[key] = (value, "count")
        else:
            metrics[key] = (
                statistics.median(p["layers"][key] * f for p, f in zip(traced, factors)),
                "s",
            )
    for key in ("linalg.elim_cells", "structfile.bytes"):
        metrics[key] = (first[key], "cells" if key.endswith("cells") else "bytes")
    num = max((v[0] for v in tracer.coeff.values()), default=0)
    den = max((v[1] for v in tracer.coeff.values()), default=0)
    metrics["coeff.max_num_bits"] = (num, "bits")
    metrics["coeff.max_den_bits"] = (den, "bits")
    traced_wall = median_pass(traced, "cal")
    untraced_wall = median_pass(untraced, "cal")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    counts_repeat = all(
        p["layers"][k] == first[k] for p in traced for k in first if isinstance(first[k], int)
    )
    extra = {
        "traced_pass_wall_s": [sum(p["cal"]) for p in traced],
        "untraced_wall_s": untraced_wall,
        "counts_repeat_across_passes": counts_repeat,
        "coeff_bits_by_stage": {
            k: {"num": v[0], "den": v[1]} for k, v in sorted(tracer.coeff.items())
        },
        "spans_recorded": len(tracer.spans),
    }
    return metrics, extra


def program_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "modclass").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=FULL, workdir=None):
    """Set up, measure and check one workload; returns (result, context)."""
    workdir = workdir or WORK_DIR / f"{workload}-{os.getpid()}"
    try:
        with CalibratedClock() as clock:
            lib, wl, setup_spans = set_up(workload, seed, sizes, workdir)
            phases = [run_passes(wl, seconds)]
            if trace:
                tracer = Tracer(lib)
                tracer.install()
                clock.tracer = tracer
                try:
                    phases.append(run_passes(wl, seconds, tracer))
                finally:
                    clock.tracer = None
                    tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for phase in phases:
        calibrate(clock, phase)
    metrics, extra = end_to_end(
        wl,
        phases[0],
        [clock.calibrated(a, b) for a, b in setup_spans],
        [clock.raw(a, b) for a, b in setup_spans],
        clock.speeds(),
    )
    if trace:
        extra["end_to_end"] = {k: v[0] for k, v in metrics.items()}
        metrics, layer_extra = per_layer(tracer, phases[1], phases[0])
        extra.update(layer_extra)
        WORK_DIR.mkdir(exist_ok=True)
        tracer.write_spans(WORK_DIR / f"trace-{workload}-seed{seed}.json")
    failures = [f for phase in phases for p in phase for f in p["failures"]]
    attempted = sum(len(p["raw"]) for phase in phases for p in phase)
    context = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "input_sha256": wl.digest(),
        "items": len(wl.items),
        "program_sha256": program_digest(),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:20],
        **extra,
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "modclass" / "__init__.py").is_file():
        print(f"error: no library at {ROOT / 'src' / 'modclass'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result, context = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in context["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
