"""``campaign`` — run a declarative sweep spec through the batch service."""

from __future__ import annotations

import argparse

from repro.cli import command


def _configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("spec", help="campaign spec file (TOML: [campaign] "
                                     "metadata, [base] job defaults, [sweep] "
                                     "axes; see docs/CAMPAIGN.md)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="merged report destination (default: the "
                             "spec's `out`, else BENCH_campaign.json)")
    parser.add_argument("--pool-workers", type=int, default=None,
                        help="batch-service pool size (default: the "
                             "spec's `pool_workers`, else 2)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="seconds to wait for the matrix (default: "
                             "the spec's `timeout_seconds`, else 600)")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the expanded job matrix and exit "
                             "without executing")


@command(
    "campaign",
    "expand a declarative TOML sweep and run it with dedup",
    configure=_configure,
)
def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignError, load_campaign, run_campaign

    try:
        spec = load_campaign(args.spec)
        jobs = spec.expand()
    except (CampaignError, OSError) as exc:
        print(f"invalid campaign spec: {exc}")
        return 2

    if args.dry_run:
        keys = [job.cache_key() for job in jobs]
        print(f"campaign {spec.name!r}: {len(jobs)} cells, "
              f"{len(set(keys))} unique content addresses")
        for job, key in zip(jobs, keys):
            what = job.benchmark or "<deck>"
            print(f"  {key[:16]}… {what} n={job.n_atoms} steps={job.steps} "
                  f"seed={job.seed} precision={job.precision} "
                  f"backend={job.backend} workers={job.workers}")
        return 0

    try:
        report = run_campaign(
            spec,
            out=args.out,
            pool_workers=args.pool_workers,
            timeout=args.timeout,
            verbose=True,
        )
    except (CampaignError, RuntimeError, TimeoutError) as exc:
        print(f"campaign failed: {exc}")
        return 1
    dedup = report["dedup"]
    print(f"done: {dedup['cells']} cells, {dedup['unique_addresses']} "
          f"executed, {dedup['dedup_hits']} dedup hits")
    return 0
