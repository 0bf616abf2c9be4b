#!/usr/bin/env python3
"""Spread of a set of runs, or a comparison of two sets, per workload.

Usage (from the repository root)::

    python3 perfbench/stats.py RUNS_DIR              # median, quartiles, spread
    python3 perfbench/stats.py BASE_DIR CHANGE_DIR   # change vs. base

Each directory holds the records ``run.py --record-dir DIR`` writes.
The spread of a metric is the distance between its first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of its
median; a steady benchmark keeps it below a third of the metric's bound
in ``BENCHMARK.json``.  In a comparison, a workload whose runs differ
from the base's in resolved backend, compiled provider, precision,
workers, atom count or host is reported as *not comparable* rather
than as a regression or a gain.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COMPARABILITY_KEYS = (
    "backend_resolved",
    "compiled_provider",
    "precision",
    "workers",
    "n_atoms",
    "nproc",
    "cpu_model",
)


def load(directory: Path) -> dict[str, list[dict]]:
    """Untraced records by workload."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs[record["workload"]].append(record)
    return runs


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their spread over the median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median)


def comparability(records: list[dict]) -> set[tuple]:
    return {
        tuple(r.get("provenance", {}).get(k) for k in COMPARABILITY_KEYS) for r in records
    }


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(Path(d)) for d in argv]
    steady = True
    for workload in sorted(sets[-1]):
        runs = sets[-1][workload]
        failed = sum(not r["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {failed} failed")
        base = sets[0].get(workload) if len(sets) == 2 else None
        if base is not None and comparability(base) != comparability(runs):
            print("  not comparable: " + " vs ".join(map(str, (comparability(base), comparability(runs)))))
            continue
        for name, metric in metrics.items():
            values = [r["end_to_end"][name] for r in runs if name in r["end_to_end"]]
            if len(values) < 2:
                continue
            median, q1, q3, spread = summary(values)
            line = f"  {name:14s} median {median:12.6g} {metric['unit']:5s} q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%} (bound {metric['bound']:.0%})"
            if name != "setup_s" and spread >= metric["bound"] / 3:
                steady = False
                line += "  NOT STEADY"
            if base is not None:
                b_values = [r["end_to_end"][name] for r in base if name in r["end_to_end"]]
                b_median, _, _, b_spread = summary(b_values)
                sign = 1.0 if metric["better"] == "lower" else -1.0
                worse = sign * (median - b_median) / abs(b_median)
                if b_spread > metric["bound"]:
                    verdict = "unresolved (base spread exceeds bound)"
                elif worse > metric["bound"]:
                    verdict = "REGRESSION"
                else:
                    verdict = "within bound"
                line += f"  vs base {b_median:.6g}: {-worse:+.2%} better, {verdict}"
            print(line)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
