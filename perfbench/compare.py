"""Spread and agreement of recorded benchmark runs.

    python3 perfbench/compare.py FIRST.jsonl [SECOND.jsonl]

Reads the records that ``run.py --record FILE`` appends.  For each workload
and each end-to-end metric of BENCHMARK.json it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  A spread over the
metric's bound fails; one over a third of it is marked.  The spread of
``setup_s`` is printed but not gated.

With a second file it also prints how far the second median moved from the
first, and fails a move in the worse direction by more than the bound.

Deterministic counts (check, word and row counts, tower ranks, emitted
bytes and their digest, and in traced runs the calls per wrapped name) of
runs with the same workload, seed and trace flag must agree exactly, within
and between the files.  Exits 1 when any check fails.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def deterministic(record: dict) -> dict:
    out = {"counts": record["counts"]}
    if record.get("trace_counts"):
        out["trace"] = record["trace_counts"][0]
    return out


def check_counts(records: list[dict], label: str) -> int:
    groups = defaultdict(list)
    for rec in records:
        groups[(rec["workload"], rec["seed"], rec["trace"])].append(deterministic(rec))
    bad = 0
    for key, items in sorted(groups.items()):
        if any(item != items[0] for item in items[1:]):
            print(f"COUNTS DIFFER {label}: workload {key[0]} seed {key[1]} trace {key[2]}")
            bad += 1
    repeated = sum(len(v) > 1 for v in groups.values())
    print(f"deterministic counts {label}: {len(groups)} groups, {repeated} with repeats, {bad} differing")
    return bad


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sets = [[r for r in load(p) if r["trace"] == 0] for p in argv]
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = []
            for records in sets:
                values = [r["metrics"][name] for r in records if r["workload"] == workload]
                stats.append(spread(values) + (len(values),) if len(values) >= 2 else None)
            if stats[0] is None:
                continue
            line = f"{workload:>14} {name:<12}"
            for s in stats:
                if s is None:
                    continue
                median, q1, q3, sp, n = s
                gated = name != "setup_s"
                mark = ""
                if gated and sp > bound:
                    mark, failures = " OVER BOUND", failures + 1
                elif gated and sp > bound / 3:
                    mark = " over bound/3"
                line += f" | n={n} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {sp:.4f}{mark}"
            if len(stats) == 2 and stats[1] is not None:
                first, second = stats[0][0], stats[1][0]
                change = (second - first) / first
                worse = change if metric["better"] == "lower" else -change
                flag = ""
                if worse > bound:
                    flag, failures = " WORSE THAN BOUND", failures + 1
                line += f" | second vs first {change:+.4f} (bound {bound}){flag}"
            print(line)
    every = [r for p in argv for r in load(p)]
    for path in argv:
        failures += check_counts(load(path), os.path.basename(path))
    if len(argv) == 2:
        failures += check_counts(every, "across both files")
    print("OK" if failures == 0 else f"{failures} check(s) failed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
