"""Set up, measure and check one run of one workload.

A run drives the public API only: the suite builder, ``Simulation``
set-up and stepping, and ``ParallelForceExecutor``.  End-to-end metrics
come from an untraced window; ``trace=True`` adds a second, traced
window on the same trajectory for the per-layer metrics.  Every run ends
in a correctness gate; a run that raises or fails the gate still
reports the metrics it measured and counts as failed.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import time
import traceback
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

from repro.md.kernels import resolve_auto_backend
from repro.md.kernels.compiled import provider_info
from repro.md.precision import PARITY_TOLERANCES
from repro.md.simulation import SerialForceExecutor
from repro.parallel.engine import ParallelForceExecutor
from repro.suite import get_benchmark

import spans
from workloads import (
    BACKEND,
    PRECISION,
    SETUP_REPS,
    SHAKE_VIOLATION_BOUND,
    TAIL_STEPS,
    TASKS,
    WARMUP_STEPS,
    Workload,
)

ROOT = Path(__file__).resolve().parents[1]
clock = time.perf_counter


def set_up(workload: Workload, seed: int, n_atoms: int):
    """Build and set up one simulation; returns it and its set-up times.

    ``setup.engine_start_s`` is the first executor dispatch (worker
    spawn, shared-memory arena, first subdomain lists) minus the slowest
    worker's list build, which stays in ``setup.first_forces_s`` as it
    does on the serial engine.
    """
    start = clock()
    sim = get_benchmark(workload.benchmark).build(n_atoms, seed=seed)
    sim.set_precision(PRECISION)
    sim.set_backend(BACKEND)
    engine_start = 0.0
    if workload.workers:
        executor = ParallelForceExecutor(workload.workers, precision=PRECISION)
        sim.force_executor = executor
        executor.bind(sim)
        first_dispatch = executor.maintain_neighbors

        def timed(system, *, force=False):
            nonlocal engine_start
            tick = clock()
            rebuilt = first_dispatch(system, force=force)
            worker_build = float(executor.worker_neigh_seconds.max())
            engine_start = clock() - tick - worker_build
            return rebuilt

        executor.maintain_neighbors = timed
    built = clock()
    try:
        sim.setup()
    except BaseException:
        sim.close()
        raise
    done = clock()
    if workload.workers:
        del sim.force_executor.maintain_neighbors
    return sim, {
        "setup_s": done - start,
        "setup.build_s": built - start,
        "setup.first_forces_s": done - built - engine_start,
        "setup.engine_start_s": engine_start,
    }


def timed_window(step, seconds: float) -> tuple[list[float], float]:
    """Call ``step`` for ``seconds``; per-step walls and the total.

    The window runs on past ``seconds`` until it holds ``2 * TAIL_STEPS``
    steps, so that ``step_ms_tail`` is never below the median.
    """
    walls = []
    start = now = clock()
    while now - start < seconds or len(walls) < 2 * TAIL_STEPS:
        tick = clock()
        step()
        now = clock()
        walls.append(now - tick)
    return walls, now - start


def step_metrics(walls: list[float], elapsed: float) -> dict:
    """``ts_per_s``, median step and the tail percentile of a window."""
    level = max(0.0, 100.0 * (1.0 - TAIL_STEPS / len(walls)))
    return {
        "ts_per_s": len(walls) / elapsed,
        "step_ms_p50": 1e3 * float(np.median(walls)),
        "step_ms_tail": 1e3 * float(np.percentile(walls, level)),
        "tail_percentile": level,
        "steps": len(walls),
    }


def peak_rss_mb() -> float:
    """Sum of the peak resident sets of this process and its live workers.

    Each process counts every page it has mapped resident, so pages a
    forked worker still shares with the driver count in both, as in
    ``ps``.  Peaks (``VmHWM``) rather than current sizes, because a
    worker's resident set rises and falls with each list rebuild.
    """
    kb = 0
    for pid in ["self", *(child.pid for child in multiprocessing.active_children())]:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            if pid == "self":  # no procfs: the kernel's own peak counter
                kb += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            continue
        kb += next(int(line.split()[1]) for line in status.splitlines() if line.startswith("VmHWM:"))
    return kb / 1024.0


def final_forces(sim) -> np.ndarray:
    """Forces of the production path (backend + executor) at the final state.

    Re-evaluated rather than read back: the NPT barostat rescales
    positions after the step's force evaluation, so the stored forces
    belong to the pre-dilation coordinates.
    """
    sim.setup()
    return sim.system.forces.copy()


def oracle_forces(sim) -> np.ndarray:
    """Forces of the serial ``numpy_ref`` oracle at the same state."""
    if not isinstance(sim.force_executor, SerialForceExecutor):
        sim.close()
        sim.force_executor = SerialForceExecutor()
        sim.force_executor.bind(sim)
    sim.set_backend("numpy_ref")
    sim.setup()
    return sim.system.forces.copy()


def gate(sim, workload: Workload, energy: tuple[float, float]) -> dict:
    """Physics and parity checks on the final state: name -> value/bound/ok."""
    checks = {}

    def check(name, value, bound, ok):
        checks[name] = {"value": value, "bound": bound, "ok": bool(ok)}

    system = sim.system
    finite = all(
        np.isfinite(a).all() for a in (system.positions, system.velocities, system.forces)
    )
    check("finite_state", finite, True, finite)
    if workload.max_energy_drift is not None:
        drift = abs(energy[1] - energy[0]) / abs(energy[0])
        check("nve_energy_drift", drift, workload.max_energy_drift, drift <= workload.max_energy_drift)
    if workload.temperature_window is not None:
        target = sim.integrator.temperature
        lo, hi = (target * f for f in workload.temperature_window)
        temperature = system.temperature(sim.n_constraints)
        check("npt_temperature", temperature, [lo, hi], lo <= temperature <= hi)
    if sim.constraints is not None:
        violation = sim.constraints.max_violation(system)
        check("shake_max_violation", violation, SHAKE_VIOLATION_BOUND, violation <= SHAKE_VIOLATION_BOUND)
    production = final_forces(sim)
    oracle = oracle_forces(sim)
    diff = float(np.max(np.abs(production - oracle)))
    tolerance = PARITY_TOLERANCES[PRECISION]
    check("force_parity_vs_numpy_ref", diff, tolerance, diff <= tolerance)
    return checks


def provenance(workload: Workload, seed: int, sim) -> dict:
    """Where and how a result was measured, for comparability."""
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu_model = platform.processor() or None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    provider = provider_info()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend_requested": BACKEND,
        "backend_resolved": getattr(sim.backend, "inner", sim.backend).name,
        "compiled_provider": provider["kind"] if provider else None,
        "compiled_provider_version": provider["version"] if provider else None,
        "precision": PRECISION,
        "workers": workload.workers,
        "seed": seed,
        "n_atoms": sim.system.n_atoms,
    }


def layer_counts(sim, before: dict, steps: int) -> dict:
    """Per-layer work counts and task times over a window."""
    counts, stats = sim.counts, sim.neighbor.stats
    interactions = (counts.pair_interactions - before["interactions"]) / steps
    task_s = {t: sim.timers.seconds[t] - before["tasks"][t] for t in TASKS}
    metrics = {f"task.{t}_ms": 1e3 * s / steps for t, s in task_s.items()}
    executor = sim.force_executor
    parallel = isinstance(executor, ParallelForceExecutor)
    # The engine evaluates full directed rows (newton off) and reports
    # half of them for half-list potentials.
    directed = 1 if any(p.needs_full_list for p in sim.potentials) else 2
    metrics.update(
        {
            "neighbor.builds": stats.n_builds - before["builds"],
            "neighbor.pairs_per_atom": stats.last_pairs / sim.system.n_atoms,
            "potentials.interactions_per_step": interactions,
            "kspace.grid_points": sim.kspace.grid_points if sim.kspace is not None else 0,
            "constraints.iterations_per_step": (counts.shake_iterations - before["shake"]) / steps,
            "engine.interactions_per_step": directed * interactions if parallel else 0.0,
            "engine.arena_mb": executor.arena_nbytes / 2**20 if parallel else 0.0,
        }
    )
    return metrics, sum(task_s.values())


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker and wait for it to end.

    ``multiprocessing.shared_memory`` starts this helper process on the
    first arena; ``sim.close()`` joins the workers but not the tracker,
    which left alone exits only after this process does, unreaped.
    """
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def snapshot(sim) -> dict:
    return {
        "interactions": sim.counts.pair_interactions,
        "builds": sim.neighbor.stats.n_builds,
        "shake": sim.counts.shake_iterations,
        "tasks": dict(sim.timers.seconds),
    }


def execute(workload: Workload, seed: int, seconds: float, trace: bool, n_atoms: int | None = None) -> dict:
    """One run: set up, measure, gate.  Returns the full record."""
    n_atoms = workload.n_atoms if n_atoms is None else n_atoms
    record = {"workload": workload.name, "why": workload.why, "error": None, "checks": {}}
    e2e: dict = {}
    layers: dict = {}
    setups: list[dict] = []
    sim = None
    try:
        # The native provider's on-disk build is a once-per-machine cost.
        resolve_auto_backend()
        for _ in range(SETUP_REPS):
            if sim is not None:
                # Free the previous repetition first, so the memory peak
                # is that of one simulation.
                sim.close()
                sim = None
                gc.collect()
            sim, times = set_up(workload, seed, n_atoms)
            setups.append(times)
        record["provenance"] = provenance(workload, seed, sim)
        for _ in range(WARMUP_STEPS):
            sim.step()
        if isinstance(sim.force_executor, ParallelForceExecutor):
            sim.force_executor.reset_timings()
        energy_start = sim.total_energy()
        walls, elapsed = timed_window(sim.step, seconds)
        e2e.update(step_metrics(walls, elapsed))
        record["step_walls"] = walls
        e2e["peak_rss_mb"] = peak_rss_mb()
        if trace:
            recorder = spans.SpanRecorder()
            probe = spans.install(sim, recorder)
            before = snapshot(sim)
            traced, traced_elapsed = timed_window(recorder.wrap("step", sim.step), seconds)
            recorder.active = False
            steps = record["traced_steps"] = len(traced)
            layers, task_total = layer_counts(sim, before, steps)
            layers.update(spans.layer_metrics(recorder, steps, probe))
            layers["task.coverage"] = task_total / sum(traced)
            layers["trace.overhead_frac"] = 1.0 - (steps / traced_elapsed) / e2e["ts_per_s"]
            record["spans"] = recorder.to_json()
        energy_end = sim.total_energy()
        record["checks"] = gate(sim, workload, (energy_start, energy_end))
    except Exception:
        record["error"] = traceback.format_exc()
    finally:
        if sim is not None:
            sim.close()
        stop_resource_tracker()
    if setups:
        for key in setups[0]:
            value = statistics.median(s[key] for s in setups)
            (e2e if key == "setup_s" else layers)[key] = value
    record["setup_reps"] = setups
    record["end_to_end"] = e2e
    record["per_layer"] = layers
    checks_ok = bool(record["checks"]) and all(c["ok"] for c in record["checks"].values())
    record["correct"] = record["error"] is None and checks_ok
    return record
