"""Span recording around the layer entry points, from outside ``src/``.

The traced run wraps the public entry points of each layer — bound
methods on the simulation's own objects and a delegating kernel
backend — so the program itself carries no benchmark instrumentation.
Spans stay in memory (name, start, end, parent index) and are written
out once the run ends.  A span's *self* time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from repro.md.kernels.base import KernelBackend
from repro.observability.timeline import RankTimeline
from repro.parallel.engine import ParallelForceExecutor

#: Kernel primitives, grouped as the per-layer metrics report them.
_PAIR_KERNELS = ("accumulate_pair_forces", "accumulate_scaled_pair_forces")
_NEIGH_KERNELS = ("neighbor_pairs",)


class SpanRecorder:
    """In-memory span sink; ``wrap`` returns a recording callable."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent, result]`` per span, in start order.
        self.spans: list[list] = []
        self.active = True
        self._stack: list[int] = []

    def wrap(self, name: str, fn, *, keep_result: bool = False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def recorded(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if keep_result:
                spans[index][4] = result
            return result

        return recorded

    def self_times(self) -> np.ndarray:
        """Per-span self seconds (duration minus direct children)."""
        durations = np.array([s[2] - s[1] for s in self.spans], dtype=float)
        own = durations.copy()
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                own[span[3]] -= durations[index]
        return own

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p, _ in self.spans
        ]


class SpanBackend(KernelBackend):
    """Delegating kernel backend recording one span per primitive."""

    def __init__(self, inner: KernelBackend, recorder: SpanRecorder) -> None:
        #: The backend doing the work (``backend_spec`` unwraps ``inner``).
        self.inner = inner
        self.name = f"{inner.name}+spans"
        self._calls = {
            method: recorder.wrap(f"kernels.{method}", getattr(inner, method))
            for method in (
                "current_pairs",
                "scatter_add",
                "scatter_add_sorted",
                "neighbor_pairs",
                "count_pairs_within",
                *_PAIR_KERNELS,
            )
        }

    @property
    def policy(self):
        return self.inner.policy

    def set_policy(self, policy) -> None:
        self.inner.set_policy(policy)

    def current_pairs(self, system, neighbors, cutoff=None):
        return self._calls["current_pairs"](system, neighbors, cutoff)

    def scatter_add(self, out, index, values):
        self._calls["scatter_add"](out, index, values)

    def scatter_add_sorted(self, out, index, values):
        self._calls["scatter_add_sorted"](out, index, values)

    def neighbor_pairs(self, positions, box, rc):
        return self._calls["neighbor_pairs"](positions, box, rc)

    def count_pairs_within(self, positions, box, pair_i, pair_j, rc):
        return self._calls["count_pairs_within"](positions, box, pair_i, pair_j, rc)

    def accumulate_pair_forces(self, forces, i, j, fvec):
        self._calls["accumulate_pair_forces"](forces, i, j, fvec)

    def accumulate_scaled_pair_forces(self, forces, i, j, dr, f_over_r):
        self._calls["accumulate_scaled_pair_forces"](forces, i, j, dr, f_over_r)


class EngineProbe:
    """Per-dispatch worker busy/wait accounting for the parallel engine.

    Reads the executor's public accumulators (``worker_pair_seconds``,
    ``worker_neigh_seconds``) around each dispatch and turns each
    dispatch into a measured :class:`RankTimeline`, whose ``mpi_wait``
    spans are the time each worker waited at the barrier for the
    slowest one.
    """

    def __init__(self, executor, recorder: SpanRecorder) -> None:
        self.busy = np.zeros(executor.n_workers)
        self.wait = np.zeros(executor.n_workers)
        self._recorder = recorder
        for method, counter in (
            ("compute", "worker_pair_seconds"),
            ("maintain_neighbors", "worker_neigh_seconds"),
        ):
            spanned = recorder.wrap(
                f"executor.{method}",
                getattr(executor, method),
                keep_result=method == "maintain_neighbors",
            )
            setattr(executor, method, self._probe(executor, counter, spanned))

    def _probe(self, executor, counter: str, fn):
        def probed(*args, **kwargs):
            before = getattr(executor, counter).copy()
            result = fn(*args, **kwargs)
            if self._recorder.active:
                seconds = getattr(executor, counter) - before
                if seconds.any():
                    timeline = RankTimeline.from_measured(seconds)
                    self.busy += timeline.seconds_per_rank("compute")
                    self.wait += timeline.wait_seconds_per_rank()
            return result

        return probed


def install(sim, recorder: SpanRecorder) -> EngineProbe | None:
    """Wrap every layer entry point of ``sim`` in recorder spans."""
    executor = sim.force_executor
    probe = None
    if isinstance(executor, ParallelForceExecutor):
        probe = EngineProbe(executor, recorder)
    else:
        executor.maintain_neighbors = recorder.wrap(
            "executor.maintain_neighbors", executor.maintain_neighbors, keep_result=True
        )
        executor.compute = recorder.wrap("executor.compute", executor.compute)
        # Worker processes evaluate the potentials of a parallel run;
        # only the serial engine calls them in this process.
        for potential in sim.potentials:
            potential.compute = recorder.wrap("potentials.compute", potential.compute)
    sim.set_backend(SpanBackend(sim.backend, recorder))
    if sim.kspace is not None:
        sim.kspace.compute = recorder.wrap("kspace.compute", sim.kspace.compute)
    for term in sim.bonded:
        term.compute = recorder.wrap("bonded.compute", term.compute)
    if sim.constraints is not None:
        for method in ("apply_positions", "apply_velocities"):
            setattr(
                sim.constraints,
                method,
                recorder.wrap(f"constraints.{method}", getattr(sim.constraints, method)),
            )
    for method in ("initial_integrate", "final_integrate"):
        setattr(
            sim.integrator,
            method,
            recorder.wrap(f"integrate.{method}", getattr(sim.integrator, method)),
        )
    for fix in sim.fixes:
        fix.post_force = recorder.wrap("fixes.post_force", fix.post_force)
    return probe


def layer_metrics(recorder: SpanRecorder, steps: int, probe: EngineProbe | None) -> dict:
    """Per-layer times and counts derived from the recorded spans."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_total: dict[str, float] = defaultdict(float)
    rebuild_ms: list[float] = []
    check_s = 0.0
    for span, own in zip(recorder.spans, recorder.self_times()):
        name, start, end, _, result = span
        total[name] += end - start
        calls[name] += 1
        self_total[name] += own
        if name == "executor.maintain_neighbors":
            if result:
                rebuild_ms.append(1e3 * (end - start))
            else:
                check_s += end - start
    per_step = 1e3 / steps

    def ms_per_call(names) -> float:
        n = sum(calls[k] for k in names)
        return 1e3 * sum(total[k] for k in names) / n if n else 0.0

    kernels = [k for k in total if k.startswith("kernels.")]
    executor_s = total["executor.compute"] + total["executor.maintain_neighbors"]
    metrics = {
        "neighbor.build_ms": float(np.median(rebuild_ms)) if rebuild_ms else 0.0,
        "neighbor.check_ms_per_step": check_s * per_step,
        "kernels.calls_per_step": sum(calls[k] for k in kernels) / steps,
        "kernels.ms_per_step": sum(total[k] for k in kernels) * per_step,
        "kernels.pair_ms_per_call": ms_per_call([f"kernels.{k}" for k in _PAIR_KERNELS]),
        "kernels.neigh_ms_per_call": ms_per_call([f"kernels.{k}" for k in _NEIGH_KERNELS]),
        "potentials.ms_per_step": total["potentials.compute"] * per_step,
        "potentials.self_ms_per_step": self_total["potentials.compute"] * per_step,
        "kspace.ms_per_step": total["kspace.compute"] * per_step,
        "bonded.ms_per_step": total["bonded.compute"] * per_step,
        "constraints.ms_per_step": (
            total["constraints.apply_positions"] + total["constraints.apply_velocities"]
        )
        * per_step,
        "integrate.ms_per_step": (
            total["integrate.initial_integrate"] + total["integrate.final_integrate"]
        )
        * per_step,
        "fixes.ms_per_step": total["fixes.post_force"] * per_step,
        "engine.master_ms": (total["step"] - executor_s) * per_step,
        "engine.worker_busy_max_ms": 0.0,
        "engine.worker_busy_mean_ms": 0.0,
        "engine.barrier_wait_ms": 0.0,
        "engine.imbalance": 0.0,
    }
    if probe is not None:
        mean_busy = float(probe.busy.mean())
        metrics.update(
            {
                "engine.worker_busy_max_ms": float(probe.busy.max()) * per_step,
                "engine.worker_busy_mean_ms": mean_busy * per_step,
                "engine.barrier_wait_ms": float(probe.wait.mean()) * per_step,
                "engine.imbalance": float(probe.busy.max()) / mean_busy if mean_busy else 0.0,
            }
        )
    return metrics
