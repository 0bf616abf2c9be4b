"""What the benchmark runs and why: workloads, metrics and the layer map.

This module is the benchmark's written record.  Later changes cite
workloads and metrics by the names defined here, and the layer map says
which end-to-end metric each per-layer metric should move on which
workload, and on which workload the prediction is *no change*.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Every workload runs at float64 on the fastest kernel backend the host
#: can run (``auto`` resolves to ``compiled`` when a native provider
#: passes its smoke test, else to ``numpy_fast``).
PRECISION = "double"
BACKEND = "auto"

#: Set-ups per run; ``setup_s`` and the ``setup.*`` layers report the
#: median, so one slow fork or page-fault burst does not move them.
SETUP_REPS = 7

#: Untimed steps between set-up and the timed window (scratch growth,
#: first-touch page faults).
WARMUP_STEPS = 3

#: ``step_ms_tail`` is the highest percentile with at least this many
#: steps beyond it.
TAIL_STEPS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    #: Suite registry name passed to ``repro.suite.get_benchmark``.
    benchmark: str
    n_atoms: int
    #: ``ParallelForceExecutor`` worker count; 0 runs the serial engine.
    workers: int
    why: str
    #: Correctness gate: NVE relative energy drift bound over the window
    #: (``None`` when the ensemble does not conserve energy).
    max_energy_drift: float | None = None
    #: NPT temperature window, as multiples of the thermostat target.
    temperature_window: tuple[float, float] | None = None


#: The Rhodo builder starts from an unequilibrated lattice: potential
#: energy released in the first ~10 steps heats the proxy to 3x (4k
#: atoms) to 11x (384 atoms) the 0.6 target, after which the Nose-Hoover
#: thermostat over-damps and the temperature falls below 1% of target by
#: step ~170 (its final half-step also reads velocities before RATTLE
#: removes their constraint components, which look far hotter than the
#: system).  No window around the target holds inside a benchmark
#: window, so this one only rejects a frozen (< 1%) or runaway (> 10x)
#: system; the 4k run reaches ~50 steps in a traced run.
NPT_TEMPERATURE_WINDOW = (0.01, 10.0)


#: Relative NVE energy drift allowed over one timed window.  Measured
#: drift on the kept workloads is ~3e-5 (LJ, ~200 steps) and ~1e-11
#: (Tersoff); a force or integrator error shows up orders of magnitude
#: above this.
NVE_DRIFT_BOUND = 1e-3

#: SHAKE converges to |r^2 - d^2| / d^2 <= 1e-8, then the NPT barostat's
#: final half-step dilates every bond by at most exp(1e-3) - 1 (its
#: strain-rate cap), so a converged state has |r - d| / d below this.
SHAKE_VIOLATION_BOUND = 1.1e-3

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "lj_32k",
            "lj",
            32_000,
            0,
            "Serial LJ melt at the Table-2 minimum: Pair+Neigh are ~99% of "
            "the step, so md.kernels and md.neighbor dominate; the plain "
            "single-process baseline.",
            max_energy_drift=NVE_DRIFT_BOUND,
        ),
        Workload(
            "lj_32k_w2",
            "lj",
            32_000,
            2,
            "Same LJ system through ParallelForceExecutor(2): the only "
            "workload using parallel.engine (newton-off subdomain lists, "
            "barrier waits); lj_32k is its bypass.",
            max_energy_drift=NVE_DRIFT_BOUND,
        ),
        Workload(
            "rhodo_4k",
            "rhodo",
            4_000,
            0,
            "Rhodopsin proxy, NPT+SHAKE+PPPM, neighbor list rebuilt every "
            "step: the only workload for md.kspace, md.constraints, "
            "md.bonded and the NPT integrator.",
            temperature_window=NPT_TEMPERATURE_WINDOW,
        ),
        Workload(
            "tersoff_32k",
            "tersoff",
            32_768,
            0,
            "Tersoff silicon, no rebuilds: Pair sits in the many-body "
            "triplet code of md.potentials, separating potential gains from "
            "kernel gains.",
            max_energy_drift=NVE_DRIFT_BOUND,
        ),
    )
}

#: End-to-end metrics: (unit, better).  Bounds live in BENCHMARK.json.
END_TO_END: dict[str, tuple[str, str]] = {
    "ts_per_s": ("1/s", "higher"),
    "step_ms_p50": ("ms", "lower"),
    "step_ms_tail": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

TASKS = ("Pair", "Neigh", "Kspace", "Bond", "Modify", "Comm", "Output", "Other")

#: Per-layer metrics by layer (repo module), with units.  Per-step values
#: are means over the traced window.
LAYER_METRICS: dict[str, dict[str, str]] = {
    "md.simulation": {
        **{f"task.{t}_ms": "ms" for t in TASKS},
        "task.coverage": "ratio",
    },
    "suite": {
        "setup.build_s": "s",
        "setup.first_forces_s": "s",
        "setup.engine_start_s": "s",
    },
    "md.neighbor": {
        "neighbor.builds": "count",
        "neighbor.build_ms": "ms",
        "neighbor.check_ms_per_step": "ms",
        "neighbor.pairs_per_atom": "count",
    },
    "md.kernels": {
        "kernels.calls_per_step": "count",
        "kernels.ms_per_step": "ms",
        "kernels.pair_ms_per_call": "ms",
        "kernels.neigh_ms_per_call": "ms",
    },
    "md.potentials": {
        "potentials.ms_per_step": "ms",
        "potentials.self_ms_per_step": "ms",
        "potentials.interactions_per_step": "count",
    },
    "md.kspace": {"kspace.ms_per_step": "ms", "kspace.grid_points": "count"},
    "md.bonded": {"bonded.ms_per_step": "ms"},
    "md.constraints": {
        "constraints.ms_per_step": "ms",
        "constraints.iterations_per_step": "count",
    },
    "md.integrators": {"integrate.ms_per_step": "ms", "fixes.ms_per_step": "ms"},
    "parallel.engine": {
        "engine.worker_busy_max_ms": "ms",
        "engine.worker_busy_mean_ms": "ms",
        "engine.barrier_wait_ms": "ms",
        "engine.master_ms": "ms",
        "engine.imbalance": "ratio",
        "engine.interactions_per_step": "count",
        "engine.arena_mb": "MB",
    },
    "observability": {"trace.overhead_frac": "ratio"},
}

PER_LAYER: dict[str, str] = {
    name: unit for metrics in LAYER_METRICS.values() for name, unit in metrics.items()
}

#: Layer -> (end-to-end metric it should move and where, bypass workloads
#: on which the prediction is no change).
LAYER_MAP: dict[str, tuple[str, str]] = {
    "md.simulation": ("ts_per_s wherever the changed task dominates", "none"),
    "suite": ("setup_s on all workloads", "none"),
    "md.neighbor": (
        "ts_per_s and step_ms_p50 on rhodo_4k; step_ms_tail on lj_32k",
        "tersoff_32k (no rebuilds)",
    ),
    "md.kernels": ("ts_per_s on lj_32k", "tersoff_32k"),
    "md.potentials": ("ts_per_s on tersoff_32k", "lj_32k"),
    "md.kspace": ("ts_per_s on rhodo_4k", "lj_32k, tersoff_32k"),
    "md.bonded": ("ts_per_s on rhodo_4k", "lj_32k"),
    "md.constraints": ("ts_per_s on rhodo_4k", "lj_32k, tersoff_32k"),
    "md.integrators": ("ts_per_s on rhodo_4k (NPT)", "tersoff_32k"),
    "parallel.engine": (
        "ts_per_s and step_ms_tail on lj_32k_w2",
        "lj_32k (no engine)",
    ),
    "observability": ("none; trace.overhead_frac must stay small", "none"),
}

#: Suite workloads and surfaces deliberately not measured, with reasons.
LEFT_OUT: dict[str, str] = {
    "chain": "Cannot run at any realistic size (FENE bonds overstretch after "
    "pushoff); re-adding it is its own benchmark change after that fix, and "
    "no size or seed is chosen that happens to survive.",
    "eam, chute": "Pair-dominated with no rebuilds, the same shape as lj_32k "
    "and tersoff_32k.",
    "service, campaign": "Only add dispatch around the same MD job, and the "
    "campaign's content address leaves out workers, so its cache would hand "
    "back another execution's timing.",
    "energy": "No RAPL on the reference host (/sys/class/powercap absent), so "
    "joules would be modelled, not measured.",
}

#: A claimed change must also hold on a seed other than this one.
DEFAULT_SEED = 1
