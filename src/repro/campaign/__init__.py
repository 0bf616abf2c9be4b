"""Declarative characterization campaigns.

The paper is a *campaign* — sweeps over ranks, precision modes and
problem sizes — and this package is its orchestration API: one TOML
spec (a ``[base]`` job section plus ``[sweep]`` axes) expands into a
validated job matrix, runs through the batch service (overlapping
sweep cells get content-addressed dedup and in-flight coalescing for
free), and lands as one merged, provenance-stamped
``repro-bench-report/2`` record.

See ``docs/CAMPAIGN.md`` for the spec format and
``python -m repro campaign --help`` for the CLI.
"""

from repro.campaign.spec import (
    CampaignError,
    CampaignSpec,
    load_campaign,
    parse_campaign,
)
from repro.campaign.runner import run_campaign

__all__ = [
    "CampaignError",
    "CampaignSpec",
    "load_campaign",
    "parse_campaign",
    "run_campaign",
]
