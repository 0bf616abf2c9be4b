#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, every metric by name.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lj_32k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 0   # every workload in turn
    python3 perfbench/run.py --describe

``--trace 0`` reports the end-to-end metrics of an untraced window;
``--trace 1`` adds a traced window on the same trajectory and reports
the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the full
record (provenance, correctness checks, set-up repetitions and, when
traced, every span) is written under ``.bench_build/perfbench/``.
Exit code 0 means the run passed its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    END_TO_END,
    LAYER_MAP,
    LEFT_OUT,
    PER_LAYER,
    WORKLOADS,
)


def describe() -> dict:
    """The benchmark's rationale: workloads, layer map, what is left out."""
    return {
        "workloads": {name: w.why for name, w in WORKLOADS.items()},
        "layer_map": {
            layer: {"moves": moves, "bypass": bypass}
            for layer, (moves, bypass) in LAYER_MAP.items()
        },
        "left_out": LEFT_OUT,
        "seed_rule": f"default seed {DEFAULT_SEED}; a claimed change must also "
        "hold on a seed other than the default",
    }


def result_line(record: dict, trace: bool) -> dict:
    """The driver-facing summary: exactly the declared metrics."""
    declared = PER_LAYER if trace else {k: unit for k, (unit, _) in END_TO_END.items()}
    measured = record["per_layer"] if trace else record["end_to_end"]
    correct = record["correct"]
    return {
        "correct": correct,
        "attempted": 1,
        "failed": 0 if correct else 1,
        "metrics": {
            name: {"value": float(measured.get(name, 0.0)), "unit": unit}
            for name, unit in declared.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-dir",
        type=Path,
        default=ROOT / ".bench_build" / "perfbench" / "records",
        help="where the full run record is written",
    )
    parser.add_argument("--describe", action="store_true", help="print the rationale and exit")
    args = parser.parse_args(argv)
    if args.describe:
        print(json.dumps(describe(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        # One process per workload, so each reports its own memory peak.
        failed = 0
        for name in WORKLOADS:
            command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--record-dir", str(args.record_dir)]
            failed += subprocess.run(command).returncode != 0
        print(f"{len(WORKLOADS)} workloads, {failed} failed")
        return 1 if failed else 0

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    # Everything the run builds or spills stays inside the checkout, and
    # switches that would change what is measured are cleared.
    build = ROOT / ".bench_build" / "perfbench"
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(build / "tmp")
    os.environ["REPRO_COMPILED_CACHE"] = str(build / "cc_cache")
    for knob in ("REPRO_TRACE", "REPRO_FAULT_PLAN", "REPRO_COMPILED_PROVIDER"):
        os.environ.pop(knob, None)
    sys.path.insert(0, str(src))
    import harness

    workload = WORKLOADS[args.workload]
    record = harness.execute(workload, args.seed, args.seconds, bool(args.trace))
    args.record_dir.mkdir(parents=True, exist_ok=True)
    path = args.record_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))

    prov = record.get("provenance", {})
    print(
        f"workload {workload.name}  seed {args.seed}  n_atoms {prov.get('n_atoms')}  "
        f"workers {workload.workers}  precision {prov.get('precision')}  backend "
        f"{prov.get('backend_requested')}->{prov.get('backend_resolved')} "
        f"(provider {prov.get('compiled_provider')})  nproc {prov.get('nproc')}"
    )
    e2e = record["end_to_end"]
    if "steps" in e2e:
        print(f"  window: {e2e['steps']} steps; step_ms_tail is p{e2e['tail_percentile']:.1f}")
    summary = result_line(record, bool(args.trace))
    for name, metric in summary["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'failed_frac':34s} {summary['failed'] / summary['attempted']:14.6g} ratio")
    for name, check in record["checks"].items():
        print(f"  check {name}: {check['value']} (bound {check['bound']}) {'ok' if check['ok'] else 'FAILED'}")
    if record["error"]:
        print(record["error"], file=sys.stderr)
    print(f"  record: {path}")
    print(json.dumps(summary))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
