"""The benchmark's own tests, at tiny sizes so they run in seconds.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
from workloads import END_TO_END, PER_LAYER, TASKS, WORKLOADS  # noqa: E402

#: Smallest sizes each builder runs at with its real cutoff and skin.
TINY = {"lj_32k": 500, "lj_32k_w2": 2048, "rhodo_4k": 384, "tersoff_32k": 512}
SECONDS = 0.3


@pytest.fixture(scope="module")
def records():
    return {
        name: harness.execute(WORKLOADS[name], seed=3, seconds=SECONDS, trace=True, n_atoms=n)
        for name, n in TINY.items()
    }


def test_every_workload_has_a_tiny_size():
    assert set(TINY) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(records, name, trace):
    record = records[name]
    assert record["error"] is None, record["error"]
    assert record["correct"], record["checks"]
    line = run.result_line(record, trace)
    declared = PER_LAYER if trace else {k: u for k, (u, _) in END_TO_END.items()}
    assert set(line["metrics"]) == set(declared)
    measured = record["per_layer"] if trace else record["end_to_end"]
    for metric, value in line["metrics"].items():
        assert metric in measured, metric
        assert value["unit"] == declared[metric]
        assert math.isfinite(value["value"])
    assert (line["attempted"], line["failed"]) == (1, 0)
    json.dumps(line)


def test_two_worker_run_measures_the_engine(records):
    layers = records["lj_32k_w2"]["per_layer"]
    assert layers["engine.worker_busy_max_ms"] >= layers["engine.worker_busy_mean_ms"] > 0
    assert layers["engine.barrier_wait_ms"] > 0
    assert layers["engine.interactions_per_step"] > layers["potentials.interactions_per_step"]
    assert records["lj_32k_w2"]["provenance"]["workers"] == 2


def test_runs_leave_no_process_behind(records):
    """Workers and the shared-memory resource tracker are stopped and reaped."""
    tasks = Path("/proc/self/task")
    if not tasks.is_dir():
        pytest.skip("needs procfs")
    children = [pid for task in tasks.iterdir() for pid in (task / "children").read_text().split()]
    assert children == []


@pytest.mark.parametrize("name", sorted(TINY))
def test_task_coverage_is_within_two_percent(records, name):
    assert abs(records[name]["per_layer"]["task.coverage"] - 1.0) <= 0.02


@pytest.mark.parametrize("name", sorted(TINY))
def test_self_times_are_non_negative_and_fit_in_the_step(records, name):
    span_list = records[name]["spans"]
    duration = np.array([s["end"] - s["start"] for s in span_list])
    own = duration.copy()
    for index, span in enumerate(span_list):
        if span["parent"] >= 0:
            own[span["parent"]] -= duration[index]
    assert own.min() >= -1e-12
    roots = [i for i, s in enumerate(span_list) if s["parent"] < 0]
    assert all(span_list[i]["name"] == "step" for i in roots)
    nested = sum(own[i] for i in range(len(span_list)) if span_list[i]["parent"] >= 0)
    assert nested <= duration[roots].sum()


def test_rhodo_rebuilds_every_timed_step(records):
    layers = records["rhodo_4k"]["per_layer"]
    assert layers["neighbor.builds"] == records["rhodo_4k"]["traced_steps"] >= 1
    assert layers["neighbor.check_ms_per_step"] == 0.0
    assert set(records["rhodo_4k"]["checks"]) >= {"shake_max_violation", "npt_temperature"}


def test_task_names_follow_the_program():
    from repro.md.timers import TASKS as PROGRAM_TASKS

    assert set(TASKS) == set(PROGRAM_TASKS)


def test_corrupted_final_forces_fail_the_run(monkeypatch):
    production = harness.final_forces

    def corrupted(sim):
        forces = production(sim)
        forces[0, 0] += 1e-6
        return forces

    monkeypatch.setattr(harness, "final_forces", corrupted)
    record = harness.execute(WORKLOADS["lj_32k"], seed=3, seconds=SECONDS, trace=False, n_atoms=500)
    assert record["error"] is None
    assert not record["checks"]["force_parity_vs_numpy_ref"]["ok"]
    line = run.result_line(record, trace=False)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 1, 1)
    assert line["metrics"]["ts_per_s"]["value"] > 0


def test_benchmark_json_matches_the_record():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "lj_32k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
