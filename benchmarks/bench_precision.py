#!/usr/bin/env python
"""Measured precision-mode benchmark for the real engine (Fig. 15).

Runs the LJ and Rhodopsin suite benchmarks through the engine's
:class:`~repro.md.precision.PrecisionPolicy` modes (single / mixed /
double) with identical seeds and measures what the paper's Section 8
plots from hardware:

* **throughput** — timesteps/second per mode (LJ at 32k atoms, where
  the single > mixed > double ordering is resolvable above timer noise);
* **drift** — long-run total-energy drift per atom over 2000 NVE steps,
  the accuracy cost of each mode (MIXED must stay within ~2x of
  DOUBLE's discretization drift; SINGLE drifts measurably);
* **oracle error** — relative force error of the ``numpy_fast``
  backend in each mode against the float64 ``numpy_ref`` oracle,
  asserting the per-mode tolerance tiers (1e-12 / 1e-5 / 1e-4).

Every run is pinned to ``numpy_fast``, the backend the ordering and
drift gates are calibrated on: under the ``auto`` default a
compiled-capable host would run ``compiled``, whose SINGLE-policy
neighbor build stays on the numpy path and so inverts the
single-vs-double throughput ordering the full run gates.

Results land in ``BENCH_precision.json`` at the repo root — the
measured companion to the modeled ``benchmarks/test_fig15_precision_cpu.py``.

Usage::

    python benchmarks/bench_precision.py           # full run (~10 min)
    python benchmarks/bench_precision.py --smoke   # small LJ only (CI)
    python benchmarks/bench_precision.py --out PATH
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.md.kernels import get_backend, resolve_auto_backend  # noqa: E402
from repro.observability.telemetry import (  # noqa: E402
    TelemetrySampler,
    detect_provider,
    platform_provenance,
)
from repro.platforms.power import MIN_RUN_SECONDS  # noqa: E402
from repro.report import (  # noqa: E402
    energy_provenance,
    make_report,
    platform_info,
)
from repro.suite import get_benchmark  # noqa: E402

MODES = ("single", "mixed", "double")

#: The backend every run is pinned to (see the module docstring).
BACKEND = "numpy_fast"

#: Per-mode relative force-error ceilings of numpy_fast vs the float64
#: numpy_ref oracle (the acceptance tiers; also PrecisionPolicy.force_rtol).
ORACLE_TOLERANCES = {"double": 1e-12, "mixed": 1e-5, "single": 1e-4}

#: MIXED's energy drift must stay within this factor of DOUBLE's.
MIXED_DRIFT_FACTOR = 2.0


def _throughput(bench_name: str, n_atoms: int, *, warmup: int, steps: int,
                verbose: bool, reps: int = 2,
                min_seconds: float = 0.0) -> list[dict]:
    """Timesteps/second per mode on identically seeded systems.

    Best of ``reps`` timed blocks — container schedulers routinely
    steal 5-10% of one block, which is the size of the mixed-vs-double
    gap the acceptance check rides on.  With ``min_seconds`` (full
    runs), extra untimed blocks keep the telemetry window open past the
    power methodology's 10 s floor, so the energy record sheds its
    ``power_under_sampled`` flag without touching the best-of timing.
    """
    out = []
    for mode in MODES:
        bench = get_benchmark(bench_name)
        sim = bench.build(n_atoms)
        sim.set_backend(BACKEND)
        sim.set_precision(mode)
        sim.setup()
        sim.run(warmup)
        wall = float("inf")
        # One telemetry window spans all reps: the sampler integrates
        # joules over identical steps, which averages out scheduler
        # noise the same way best-of-reps does for wall time.
        sampler = TelemetrySampler(detect_provider()).start()
        window0 = time.perf_counter()
        sampled_steps = 0
        for _ in range(reps):
            tick = time.perf_counter()
            sim.run(steps)
            wall = min(wall, time.perf_counter() - tick)
            sampled_steps += steps
        while time.perf_counter() - window0 < min_seconds:
            sim.run(steps)
            sampled_steps += steps
        sampler.stop()
        power = sampler.summary(steps=sampled_steps)
        ts_per_s = steps / wall
        entry = {
            "group": "throughput",
            "benchmark": bench_name,
            "n_atoms": sim.system.n_atoms,
            "mode": mode,
            "steps": steps,
            "reps": reps,
            "energy_steps": sampled_steps,
            "wall_s": wall,
            "ts_per_s": ts_per_s,
            "energy": float(sim.total_energy()),
            "joules_per_step": power["joules_per_step"],
            "mean_watts": power["mean_watts"],
            "ts_per_s_per_watt": (
                ts_per_s / power["mean_watts"]
                if power["mean_watts"] > 0
                else 0.0
            ),
            "power_provider": power["provider"],
            "power_provider_kind": power["kind"],
            "power_under_sampled": power["under_sampled"],
        }
        out.append(entry)
        if verbose:
            print(f"  throughput {bench_name:<6} n={entry['n_atoms']:<6} "
                  f"{mode:<6} {entry['ts_per_s']:8.3f} TS/s", flush=True)
    return out


def _drift(bench_name: str, n_atoms: int, *, steps: int, sample_every: int,
           verbose: bool) -> list[dict]:
    """Max |E(t) - E(0)| per atom over a long NVE run, per mode."""
    out = []
    for mode in MODES:
        bench = get_benchmark(bench_name)
        sim = bench.build(n_atoms)
        sim.set_backend(BACKEND)
        sim.set_precision(mode)
        sim.setup()
        e0 = float(sim.total_energy())
        worst = 0.0
        done = 0
        while done < steps:
            n = min(sample_every, steps - done)
            sim.run(n)
            done += n
            worst = max(worst, abs(float(sim.total_energy()) - e0))
        entry = {
            "group": "drift",
            "benchmark": bench_name,
            "n_atoms": sim.system.n_atoms,
            "mode": mode,
            "steps": steps,
            "initial_energy": e0,
            "final_energy": float(sim.total_energy()),
            "max_drift_per_atom": worst / sim.system.n_atoms,
        }
        out.append(entry)
        if verbose:
            print(f"  drift      {bench_name:<6} n={entry['n_atoms']:<6} "
                  f"{mode:<6} max|dE|/atom = "
                  f"{entry['max_drift_per_atom']:.3e}", flush=True)
    return out


def _oracle_error(n_atoms: int, *, verbose: bool, evolve_steps: int = 10
                  ) -> list[dict]:
    """numpy_fast force error vs the float64 numpy_ref oracle, per mode.

    Each mode evolves its own trajectory a few steps off the initial
    lattice (whose symmetric net-zero forces would make relative error
    meaningless), then the float64 reference backend re-evaluates forces
    on *that exact configuration*.  The reported number is the global
    relative RMS error — purely the cost of the mode's dtype policy
    (storage rounding + compute rounding), not trajectory divergence.
    """
    out = []
    for mode in MODES:
        bench = get_benchmark("lj")
        sim = bench.build(n_atoms)
        sim.set_backend(BACKEND)
        sim.set_precision(mode)
        sim.setup()
        sim.run(evolve_steps)
        forces = sim.system.forces.astype(np.float64)

        ref_sim = bench.build(n_atoms)
        ref_sim.set_backend(get_backend("numpy_ref"))
        ref_sim.system.positions[...] = sim.system.positions.astype(np.float64)
        ref_sim.setup()
        ref_forces = np.asarray(ref_sim.system.forces, dtype=np.float64)

        err = float(
            np.linalg.norm(forces - ref_forces) / np.linalg.norm(ref_forces)
        )
        entry = {
            "group": "oracle_error",
            "benchmark": "lj",
            "n_atoms": sim.system.n_atoms,
            "mode": mode,
            "rel_force_error": err,
            "tolerance": ORACLE_TOLERANCES[mode],
        }
        out.append(entry)
        if verbose:
            print(f"  oracle     lj     n={entry['n_atoms']:<6} {mode:<6} "
                  f"rel |dF| = {err:.3e} (tol {entry['tolerance']:.0e})",
                  flush=True)
    return out


def run(*, smoke: bool, verbose: bool = True) -> dict:
    results: list[dict] = []
    if smoke:
        results += _throughput("lj", 2048, warmup=3, steps=10, verbose=verbose)
        results += _drift("lj", 2048, steps=200, sample_every=50,
                          verbose=verbose)
        results += _oracle_error(2048, verbose=verbose)
    else:
        results += _throughput("lj", 32768, warmup=5, steps=20,
                               verbose=verbose,
                               min_seconds=MIN_RUN_SECONDS)
        results += _throughput("rhodo", 2000, warmup=2, steps=8,
                               verbose=verbose,
                               min_seconds=MIN_RUN_SECONDS)
        results += _drift("lj", 4096, steps=2000, sample_every=100,
                          verbose=verbose)
        results += _drift("rhodo", 2000, steps=100, sample_every=25,
                          verbose=verbose)
        results += _oracle_error(4096, verbose=verbose)
    return make_report(
        "precision",
        backend={
            "requested": BACKEND,
            "resolved": BACKEND,
            "auto_resolves_to": resolve_auto_backend(),
        },
        precision=list(MODES),
        energy=energy_provenance(),
        platform=platform_info(telemetry=platform_provenance()),
        smoke=smoke,
        modes=list(MODES),
        results=results,
        summary=_summary(results),
    )


def _summary(results: list[dict]) -> dict:
    """The acceptance-tracked ratios, keyed for easy diffing."""
    ts = {
        (e["benchmark"], e["mode"]): e["ts_per_s"]
        for e in results
        if e["group"] == "throughput"
    }
    drift = {
        (e["benchmark"], e["mode"]): e["max_drift_per_atom"]
        for e in results
        if e["group"] == "drift"
    }
    summary: dict = {"speedup_single_over_double": {},
                     "speedup_mixed_over_double": {},
                     "drift_ratio_mixed_over_double": {},
                     "drift_ratio_single_over_double": {}}
    for bench in {b for b, _ in ts}:
        summary["speedup_single_over_double"][bench] = (
            ts[(bench, "single")] / ts[(bench, "double")]
        )
        summary["speedup_mixed_over_double"][bench] = (
            ts[(bench, "mixed")] / ts[(bench, "double")]
        )
    for bench in {b for b, _ in drift}:
        base = drift[(bench, "double")] or np.finfo(np.float64).tiny
        summary["drift_ratio_mixed_over_double"][bench] = (
            drift[(bench, "mixed")] / base
        )
        summary["drift_ratio_single_over_double"][bench] = (
            drift[(bench, "single")] / base
        )
    return summary


def check(report: dict, *, smoke: bool) -> list[str]:
    """Acceptance assertions; returns human-readable failure strings."""
    failures: list[str] = []
    by_mode = {
        (e["group"], e["benchmark"], e["mode"]): e for e in report["results"]
    }

    # Ordering: single >= mixed > double on the LJ throughput case.
    # (The smoke system is small enough that single vs mixed can land
    # inside timer noise, so the smoke run only checks finiteness and
    # the oracle tiers; the full 32k run enforces the ordering.)
    for e in report["results"]:
        if e["group"] == "throughput" and not np.isfinite(e["energy"]):
            failures.append(
                f"{e['benchmark']}/{e['mode']}: non-finite energy"
            )
    if not smoke:
        ts = {m: by_mode[("throughput", "lj", m)]["ts_per_s"] for m in MODES}
        if not ts["single"] >= ts["mixed"]:
            failures.append(
                f"lj throughput: single ({ts['single']:.3f} TS/s) slower "
                f"than mixed ({ts['mixed']:.3f} TS/s)"
            )
        if not ts["mixed"] > ts["double"]:
            failures.append(
                f"lj throughput: mixed ({ts['mixed']:.3f} TS/s) not above "
                f"double ({ts['double']:.3f} TS/s)"
            )
        # MIXED accuracy: drift within ~2x of double's discretization
        # drift over the 2000-step LJ run, while single drifts measurably.
        d = {
            m: by_mode[("drift", "lj", m)]["max_drift_per_atom"]
            for m in MODES
        }
        if d["mixed"] > MIXED_DRIFT_FACTOR * d["double"]:
            failures.append(
                f"lj drift: mixed {d['mixed']:.3e} exceeds "
                f"{MIXED_DRIFT_FACTOR:.0f}x double {d['double']:.3e}"
            )
        if not d["single"] > d["double"]:
            failures.append(
                f"lj drift: single {d['single']:.3e} not above double "
                f"{d['double']:.3e}"
            )

    # Oracle tiers hold in every run, smoke included.
    for e in report["results"]:
        if e["group"] != "oracle_error":
            continue
        if e["rel_force_error"] > e["tolerance"]:
            failures.append(
                f"oracle {e['mode']}: rel force error "
                f"{e['rel_force_error']:.3e} > {e['tolerance']:.0e}"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small LJ-only run asserting finite energies and the "
             "per-mode oracle tolerances (CI)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_precision.json",
        help="output JSON path (default: BENCH_precision.json at repo root)",
    )
    args = parser.parse_args(argv)

    # Fail on an unwritable destination now, not after minutes of timing.
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.touch()

    report = run(smoke=args.smoke)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    for key, per_bench in report["summary"].items():
        for bench, value in sorted(per_bench.items()):
            print(f"{key}[{bench}]: {value:.3f}")

    failures = check(report, smoke=args.smoke)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
