"""Repeat benchmark runs, and summarize or compare sets of them.

    python3 bench/compare.py run --workload W --seeds 1-10 --out runs.jsonl
    python3 bench/compare.py runs.jsonl                 # spread per metric
    python3 bench/compare.py parent.jsonl change.jsonl  # medians compared

``run`` calls bench/run.py once per seed, one after another, and appends
each run's context and result as one JSON line.  A summary gives, per
workload and end-to-end metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median, against the metric's bound in BENCHMARK.json.  A
comparison flags every metric whose second median is worse than the first
by more than its bound, and every (workload, seed) whose input hashes
differ, since such runs measured different inputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_run(args) -> int:
    seconds = load_spec()["run_seconds"]
    worst = 0
    with open(args.out, "a", encoding="utf-8") as out:
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            record = {"workload": args.workload, "seed": seed, "exit": proc.returncode}
            if len(lines) >= 2:
                record.update(json.loads(lines[-2]))
                record["result"] = json.loads(lines[-1])
            else:
                record["stderr"] = proc.stderr[-2000:]
            out.write(json.dumps(record) + "\n")
            out.flush()
            worst = max(worst, proc.returncode)
            print(f"{args.workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
    return worst


def load(path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        runs.setdefault(record["workload"], []).append(record)
    return runs


def values(records, metric) -> list[float]:
    return [
        r["result"]["metrics"][metric]["value"]
        for r in records
        if "result" in r and metric in r["result"]["metrics"]
    ]


def summarize(path) -> int:
    spec = load_spec()
    bad = 0
    for workload, records in sorted(load(path).items()):
        failed = sum(r["result"]["failed"] for r in records if "result" in r)
        broken = sum(1 for r in records if r["exit"] != 0)
        print(f"{workload}: {len(records)} runs, {failed} failed operations, {broken} nonzero exits")
        bad += failed + broken
        for m in spec["end_to_end"]:
            vals = values(records, m["name"])
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < m["bound"] / 3 else ("  above bound/3" if spread < m["bound"] else "  ABOVE BOUND")
            print(f"  {m['name']:14s} median {med:12.6g} {m['unit']:4s} q1 {q1:12.6g} q3 {q3:12.6g}"
                  f" spread {spread:7.2%} bound {m['bound']:.0%}{flag}")
    return 1 if bad else 0


def compare(path_a, path_b) -> int:
    spec = load_spec()
    a, b = load(path_a), load(path_b)
    worse = 0
    for workload in sorted(set(a) & set(b)):
        hashes_a = {r["seed"]: r["context"]["input_sha256"] for r in a[workload] if "context" in r}
        hashes_b = {r["seed"]: r["context"]["input_sha256"] for r in b[workload] if "context" in r}
        differ = sorted(s for s in set(hashes_a) & set(hashes_b) if hashes_a[s] != hashes_b[s])
        if differ:
            print(f"{workload}: INPUTS DIFFER for seeds {differ}; not comparable")
            worse += 1
            continue
        print(f"{workload}:")
        for m in spec["end_to_end"]:
            va, vb = values(a[workload], m["name"]), values(b[workload], m["name"])
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma
            regress = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            worse += regress
            print(f"  {m['name']:14s} {ma:12.6g} -> {mb:12.6g} {m['unit']:4s} ({change:+.2%})"
                  f"{'  WORSE THAN BOUND' if regress else ''}")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "run":
        parser = argparse.ArgumentParser(prog="compare.py run")
        parser.add_argument("--workload", required=True)
        parser.add_argument("--seeds", required=True, help="a seed or a range such as 1-10")
        parser.add_argument("--out", required=True)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        return cmd_run(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description="summarize or compare sets of runs")
    parser.add_argument("first")
    parser.add_argument("second", nargs="?")
    args = parser.parse_args(argv)
    return compare(args.first, args.second) if args.second else summarize(args.first)


if __name__ == "__main__":
    sys.exit(main())
