"""The declarative campaign API: spec parsing, expansion, dedup accounting.

Tentpole of the campaign-orchestrator PR (ISSUE 10): one TOML spec
expands into a validated job matrix, runs through the batch service,
and lands as a merged ``repro-bench-report/2`` record whose dedup
block explains how much execution the content-address layer saved.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CampaignError,
    CampaignSpec,
    load_campaign,
    parse_campaign,
    run_campaign,
)
from repro.campaign.spec import _mini_toml
from repro.report import validate_report

GOOD_SPEC = """
[campaign]
name = "smoke"
out = "BENCH_campaign.json"
pool_workers = 2

[base]
benchmark = "lj"
n_atoms = 150
steps = 5

[sweep]
precision = ["single", "double"]
workers = [1, 2]
"""


class TestParsing:
    def test_good_spec_round_trips(self):
        spec = parse_campaign(GOOD_SPEC)
        assert spec.name == "smoke"
        assert spec.n_cells == 4
        assert list(spec.axes) == ["precision", "workers"]
        assert spec.axes["workers"] == (1, 2)
        assert len(spec.source_sha256) == 64

    def test_expansion_order_is_last_axis_fastest(self):
        jobs = parse_campaign(GOOD_SPEC).expand()
        coords = [(j.precision, j.workers) for j in jobs]
        assert coords == [
            ("single", 1), ("single", 2), ("double", 1), ("double", 2),
        ]

    def test_figures_field_rejected(self):
        # Figure rendering is `python -m repro figure`, not a campaign hook.
        with pytest.raises(CampaignError, match="unknown field 'figures'"):
            parse_campaign(
                '[campaign]\nname = "x"\nfigures = ["table2"]\n'
                '[base]\nbenchmark = "lj"\n'
            )

    def test_load_campaign_reads_file(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text(GOOD_SPEC)
        assert load_campaign(path).n_cells == 4

    def test_invalid_toml_rejected(self):
        with pytest.raises(CampaignError):
            parse_campaign("[campaign\nname =")


class TestValidation:
    def test_empty_sweep_axis_rejected(self):
        with pytest.raises(CampaignError, match=r"axis 'workers' is empty"):
            parse_campaign(
                '[campaign]\nname = "x"\n[base]\nbenchmark = "lj"\n'
                "[sweep]\nworkers = []\n"
            )

    def test_axis_duplicating_base_key_rejected(self):
        with pytest.raises(CampaignError, match="duplicates a \\[base\\] key"):
            parse_campaign(
                '[campaign]\nname = "x"\n'
                '[base]\nbenchmark = "lj"\nsteps = 10\n'
                "[sweep]\nsteps = [10, 20]\n"
            )

    def test_unknown_base_field_rejected(self):
        with pytest.raises(CampaignError, match=r"\[base\] unknown field"):
            parse_campaign(
                '[campaign]\nname = "x"\n'
                '[base]\nbenchmark = "lj"\ntimestep = 0.001\n'
            )

    def test_unknown_sweep_axis_rejected(self):
        with pytest.raises(CampaignError, match=r"\[sweep\] unknown axis"):
            parse_campaign(
                '[campaign]\nname = "x"\n[base]\nbenchmark = "lj"\n'
                "[sweep]\ncutoff = [2.5, 3.0]\n"
            )

    def test_unknown_campaign_field_rejected(self):
        with pytest.raises(CampaignError, match=r"\[campaign\] unknown field"):
            parse_campaign('[campaign]\nname = "x"\nretries = 3\n')

    def test_unknown_table_rejected(self):
        with pytest.raises(CampaignError, match="unknown table"):
            parse_campaign('[campaign]\nname = "x"\n[extra]\nfoo = 1\n')

    def test_missing_name_rejected(self):
        with pytest.raises(CampaignError, match="name"):
            parse_campaign('[base]\nbenchmark = "lj"\n')

    def test_non_list_axis_rejected(self):
        with pytest.raises(CampaignError, match="must be a list"):
            CampaignSpec(name="x", base={}, sweep={"workers": 2})

    def test_problems_are_aggregated(self):
        with pytest.raises(CampaignError, match="unknown field.*empty"):
            parse_campaign(
                '[campaign]\nname = "x"\n'
                "[base]\nwavelength = 5\n"
                "[sweep]\nseed = []\n"
            )

    def test_bad_cell_names_its_coordinates(self):
        # steps = 0 passes table validation but fails JobSpec's own check;
        # the error must say which sweep cell produced it.
        with pytest.raises(CampaignError, match=r"cell \(steps=0\)"):
            parse_campaign(
                '[campaign]\nname = "x"\n[base]\nbenchmark = "lj"\n'
                "[sweep]\nsteps = [0]\n"
            ).expand()

    def test_pool_workers_must_be_positive(self):
        with pytest.raises(CampaignError, match="pool_workers"):
            CampaignSpec(name="x", base={}, sweep={}, pool_workers=0)


class TestMiniToml:
    """The 3.10 fallback parser handles the spec subset like tomllib."""

    def test_parses_the_reference_spec(self):
        data = _mini_toml(GOOD_SPEC)
        assert data["campaign"]["name"] == "smoke"
        assert data["base"]["n_atoms"] == 150
        assert data["sweep"]["precision"] == ["single", "double"]
        assert data["sweep"]["workers"] == [1, 2]

    def test_scalar_types(self):
        data = _mini_toml(
            "[t]\na = 1\nb = 2.5\nc = true\nd = false\ne = 'x'\n"
        )
        assert data["t"] == {"a": 1, "b": 2.5, "c": True, "d": False, "e": "x"}

    def test_duplicate_key_rejected_with_line_number(self):
        with pytest.raises(CampaignError, match="line 3.*duplicate key"):
            _mini_toml("[t]\na = 1\na = 2\n")

    def test_duplicate_table_rejected(self):
        with pytest.raises(CampaignError, match="duplicate table"):
            _mini_toml("[t]\na = 1\n[t]\nb = 2\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(CampaignError, match="expected 'key = value'"):
            _mini_toml("[t]\nnot a key value line\n")

    def test_matches_tomllib_on_the_reference_spec(self):
        tomllib = pytest.importorskip("tomllib")
        assert _mini_toml(GOOD_SPEC) == tomllib.loads(GOOD_SPEC)


class TestRunCampaign:
    def test_sweep_runs_with_dedup_and_validating_report(self, tmp_path):
        """The acceptance path: 2x2 matrix, >=1 dedup hit, valid record.

        ``workers`` is excluded from the job content address, so the
        two worker settings per precision collapse onto one execution
        each: 4 cells, 2 unique addresses, 2 dedup hits.
        """
        spec = parse_campaign(GOOD_SPEC)
        out = tmp_path / "BENCH_campaign.json"
        report = run_campaign(spec, out=out, timeout=600.0)

        assert validate_report(report) is report
        assert report["kind"] == "campaign"
        on_disk = json.loads(out.read_text())
        assert on_disk["dedup"] == report["dedup"]

        dedup = report["dedup"]
        assert dedup["cells"] == 4
        assert dedup["unique_addresses"] == 2
        assert dedup["collapsed_cells"] == 2
        assert dedup["dedup_hits"] >= 1
        assert dedup["dedup_hits"] == dedup["coalesced"] + dedup["served_cached"]

        rows = report["cells"]
        assert len(rows) == 4
        # Collapsed cells must agree bitwise with the cell they
        # collapsed onto: same content address -> same state digest.
        by_key = {}
        for row in rows:
            by_key.setdefault(row["cache_key"], set()).add(row["state_digest"])
        assert len(by_key) == 2
        assert all(len(digests) == 1 for digests in by_key.values())
        # The campaign block carries provenance back to the spec text.
        assert report["campaign"]["source_sha256"] == spec.source_sha256
        assert report["campaign"]["axes"]["workers"] == [1, 2]
        assert sorted(report["precision"]) == ["double", "single"]
