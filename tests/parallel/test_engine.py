"""Tests for the shared-memory domain-decomposed parallel engine."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.parallel.engine import ParallelEngineError, ParallelForceExecutor
from repro.suite import get_benchmark

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Small per-benchmark sizes (chain needs a chain-length multiple).
SIZES = {"lj": 2048, "chain": 2000, "eam": 1372, "rhodo": 1000, "chute": 1800}


def _run_serial(name: str, n_atoms: int, steps: int):
    sim = get_benchmark(name).build(n_atoms)
    sim.setup()
    for _ in range(steps):
        sim.step()
    return sim


def _run_parallel(name: str, n_atoms: int, steps: int, workers: int, **kwargs):
    sim = get_benchmark(name).build(n_atoms)
    executor = ParallelForceExecutor(
        workers, quasi_2d=(name == "chute"), **kwargs
    )
    sim.force_executor = executor
    executor.bind(sim)
    try:
        sim.setup()
        for _ in range(steps):
            sim.step()
        return sim, {
            "steps_measured": executor.steps_measured,
            "builds_measured": executor.builds_measured,
            "timeline": executor.timeline(),
            "n_builds": sim.neighbor.stats.n_builds,
            "last_pairs": sim.neighbor.stats.last_pairs,
        }
    finally:
        executor.close()


class TestSerialParity:
    @pytest.mark.parametrize("name", sorted(SIZES))
    def test_forces_and_energy_match_serial(self, name):
        steps = 3
        serial = _run_serial(name, SIZES[name], steps)
        parallel, _ = _run_parallel(name, SIZES[name], steps, workers=2)
        force_delta = np.abs(serial.system.forces - parallel.system.forces).max()
        assert force_delta < 1e-10
        assert serial.potential_energy == pytest.approx(
            parallel.potential_energy, rel=1e-12, abs=1e-9
        )
        assert serial.virial == pytest.approx(
            parallel.virial, rel=1e-12, abs=1e-9
        )

    def test_interaction_count_and_rebuild_cadence_match_serial(self):
        steps = 6
        serial = _run_serial("lj", SIZES["lj"], steps)
        parallel, info = _run_parallel("lj", SIZES["lj"], steps, workers=2)
        assert info["n_builds"] == serial.neighbor.stats.n_builds
        assert info["last_pairs"] == serial.neighbor.stats.last_pairs


class TestForcePathSpeedup:
    """Two workers do not lose the force path to the serial engine.

    Force path = serial (Pair + Neigh) seconds per step over the slowest
    worker's (pair + neighbor-rebuild) CPU per step, best of two windows
    each.  Worker CPU is scheduling-invariant, so the ratio holds on
    hosts with fewer cores than workers and isolates decomposition
    quality from the master-side integration.  The owner-computes scheme
    pays 2x pair math, so two workers roughly break even on pairs and
    win on the neighbor task.  Pinned to ``numpy_fast``, the backend the
    floor is calibrated on: a faster backend shrinks the parallelizable
    fraction.
    """

    FLOOR = 0.75
    WARMUP, STEPS, WINDOWS = 2, 6, 2

    def _sim(self):
        sim = get_benchmark("lj").build(4096)
        sim.set_backend("numpy_fast")
        return sim

    def test_two_worker_force_path_speedup(self):
        serial = self._sim()
        serial.setup()
        serial.run(self.WARMUP)
        serial_windows = []
        for _ in range(self.WINDOWS):
            before = serial.timers.seconds["Pair"] + serial.timers.seconds["Neigh"]
            serial.run(self.STEPS)
            after = serial.timers.seconds["Pair"] + serial.timers.seconds["Neigh"]
            serial_windows.append((after - before) / self.STEPS)

        parallel = self._sim()
        executor = ParallelForceExecutor(2)
        parallel.force_executor = executor
        executor.bind(parallel)
        worker_windows = []
        try:
            parallel.setup()
            parallel.run(self.WARMUP)
            for _ in range(self.WINDOWS):
                executor.reset_timings()
                parallel.run(self.STEPS)
                per_worker = (
                    executor.worker_pair_cpu_seconds
                    + executor.worker_neigh_cpu_seconds
                ) / max(1, executor.steps_measured)
                worker_windows.append(float(per_worker.max()))
        finally:
            executor.close()

        speedup = min(serial_windows) / min(worker_windows)
        assert speedup >= self.FLOOR, (serial_windows, worker_windows)


class TestDeterminism:
    def test_bitwise_identical_across_worker_counts(self):
        steps = 8
        states = {}
        for workers in (1, 2, 4):
            sim, _ = _run_parallel("lj", SIZES["lj"], steps, workers=workers)
            states[workers] = (
                sim.system.positions.copy(),
                sim.potential_energy,
            )
        ref_positions, ref_energy = states[1]
        for workers in (2, 4):
            positions, energy = states[workers]
            # bitwise: same directed rows summed in the same order on
            # every decomposition, so not even the last ulp may differ
            assert np.array_equal(ref_positions, positions)
            assert ref_energy == energy


class TestFailurePaths:
    def test_worker_crash_raises_instead_of_hanging(self):
        sim = get_benchmark("lj").build(SIZES["lj"])
        executor = ParallelForceExecutor(2, barrier_timeout=3.0)
        sim.force_executor = executor
        executor.bind(sim)
        try:
            sim.setup()
            sim.step()
            with pytest.raises(ParallelEngineError):
                executor.inject_crash(1)
        finally:
            executor.close()

    def test_crash_error_reports_worker_exit(self):
        sim = get_benchmark("lj").build(SIZES["lj"])
        executor = ParallelForceExecutor(2, barrier_timeout=3.0)
        sim.force_executor = executor
        executor.bind(sim)
        try:
            sim.setup()
            with pytest.raises(ParallelEngineError, match="exit"):
                executor.inject_crash(0)
        finally:
            executor.close()

    def test_close_is_idempotent(self):
        sim = get_benchmark("lj").build(SIZES["lj"])
        executor = ParallelForceExecutor(2)
        sim.force_executor = executor
        executor.bind(sim)
        sim.setup()
        executor.close()
        executor.close()


class TestObservability:
    def test_timings_and_timeline(self):
        _, info = _run_parallel("lj", SIZES["lj"], 4, workers=2)
        assert info["steps_measured"] >= 4
        assert info["builds_measured"] >= 1
        timeline = info["timeline"]
        assert timeline.n_ranks == 2
        assert timeline.render()

    def test_reset_timings(self):
        sim = get_benchmark("lj").build(SIZES["lj"])
        executor = ParallelForceExecutor(2)
        sim.force_executor = executor
        executor.bind(sim)
        try:
            sim.setup()
            sim.step()
            assert executor.steps_measured > 0
            executor.reset_timings()
            assert executor.steps_measured == 0
            assert executor.builds_measured == 0
            assert not executor.worker_pair_cpu_seconds.any()
            sim.step()
            assert executor.steps_measured == 1
        finally:
            executor.close()


class TestCli:
    def test_scale_subcommand_smoke(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "scale",
                "lj",
                "--workers",
                "2",
                "--steps",
                "3",
                "--atoms",
                "2048",
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "parity" in result.stdout
        assert "critical-path speedup" in result.stdout
