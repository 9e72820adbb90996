"""repro.campaign — resumable full-paper reproduction campaigns.

A campaign is a declarative set of stages (experiments, figures,
ablations, scenario studies) with parameter grids, dependencies, and
shard decompositions.  Running one produces a sha256-addressed
artifact store plus a report card comparing every stage's summary
rows against the committed baseline::

    from repro.campaign import get_campaign, run_campaign
    from repro import ParallelExecutor, ResultCache

    result = run_campaign(
        get_campaign("smoke"),
        campaign_dir="campaigns/smoke",
        executor=ParallelExecutor(jobs=4),
        cache=ResultCache(),
        baseline_path="CAMPAIGN_baseline.json",
    )
    print(result.report.overall)          # "pass" | "drift" | "fail"

Interrupt it at any point; re-running (or ``repro campaign resume``)
continues from the manifest checkpoint and produces byte-identical
artifacts.  CLI: ``repro campaign list|run|status|resume|report|diff``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CAMPAIGNS": ".builtin",
    "get_campaign": ".builtin",
    "CampaignFsckReport": ".doctor",
    "fsck_campaign": ".doctor",
    "BASELINE_FILENAME": ".report",
    "ReportCard": ".report",
    "StageReport": ".report",
    "compare_rows": ".report",
    "load_baseline": ".report",
    "update_baseline": ".report",
    "CampaignResult": ".runner",
    "CampaignRunner": ".runner",
    "run_campaign": ".runner",
    "stage_digests": ".runner",
    "CampaignSpec": ".spec",
    "StageSpec": ".spec",
    "stage_hash": ".spec",
    "STAGE_ADAPTERS": ".stages",
    "STAGE_KINDS": ".stages",
    "get_adapter": ".stages",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "BASELINE_FILENAME",
    "CAMPAIGNS",
    "CampaignFsckReport",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "ReportCard",
    "STAGE_ADAPTERS",
    "STAGE_KINDS",
    "StageReport",
    "StageSpec",
    "compare_rows",
    "fsck_campaign",
    "get_adapter",
    "get_campaign",
    "load_baseline",
    "run_campaign",
    "stage_digests",
    "stage_hash",
    "update_baseline",
]
