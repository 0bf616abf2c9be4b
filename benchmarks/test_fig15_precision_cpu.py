"""Bench: regenerate Figure 15 (CPU precision sensitivity).

The calibrated cost model reproduces the paper's absolute anchors
(LJ 115.2 -> 98.9 TS/s single -> double, Rhodopsin 11.5 -> 8.4).  The
real engine measures the same single/mixed/double modes through its
PrecisionPolicy with ``python -m repro campaign
campaigns/precision_sweep.toml``; its accuracy tiers are tier-1 tests
in ``tests/md/test_precision.py``.
"""

import pytest

from repro.figures import fig15

from benchmarks.conftest import run_cold


def test_fig15_cpu_precision(benchmark, cold_campaign):
    data = run_cold(benchmark, fig15.generate)
    assert data.series[("lj", "single", 2048, 64)] == pytest.approx(115.2, rel=0.2)
    assert data.series[("lj", "double", 2048, 64)] == pytest.approx(98.9, rel=0.2)
    assert data.series[("rhodo", "single", 2048, 64)] == pytest.approx(11.5, rel=0.2)
    assert data.series[("rhodo", "double", 2048, 64)] == pytest.approx(8.4, rel=0.2)
    # Double is never faster than mixed/single anywhere in the sweep.
    for (bench, precision, size, ranks), ts in data.series.items():
        if precision == "double":
            assert ts <= data.series[(bench, "single", size, ranks)] + 1e-9

