"""``repro.obs.fleet`` — journals, traces and dashboards for the fleet.

The dispatch layer (PR 8) made campaigns multi-host; this package makes
the fleet observable without touching a single result byte:

* :mod:`~repro.obs.fleet.journal` — a versioned append-only JSONL
  event journal, one schema-validated record per broker / worker /
  campaign lifecycle event, deterministic after wall-clock stripping;
* :mod:`~repro.obs.fleet.spans` — content-hash-derived trace and span
  ids, propagated in-band through the dispatch protocol;
* :mod:`~repro.obs.fleet.fleetcollect` — merge per-actor journals into
  one causally-ordered timeline, check it for orphan spans, export it
  as a Chrome/Perfetto trace;
* :mod:`~repro.obs.fleet.monitor` — plain-text live dashboards behind
  ``repro fleet status`` and ``repro campaign watch``.

Like the PR 6 probe bus, journaling is zero-overhead when off: every
hook site is a ``journal is not None`` guard on a ``None`` default,
and enabling it is bit-neutral to results and stage digests.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "FleetTimeline": ".fleetcollect",
    "check_timeline": ".fleetcollect",
    "export_fleet_trace": ".fleetcollect",
    "journal_paths": ".fleetcollect",
    "merge_journals": ".fleetcollect",
    "JOURNAL_EVENTS": ".journal",
    "JOURNAL_FORMAT": ".journal",
    "JOURNAL_VERSION": ".journal",
    "JournalDoc": ".journal",
    "JournalWriter": ".journal",
    "journal_digest": ".journal",
    "read_journal": ".journal",
    "strip_wall": ".journal",
    "render_campaign_dashboard": ".monitor",
    "render_fleet_dashboard": ".monitor",
    "watch": ".monitor",
    "batch_trace_id": ".spans",
    "lease_span_id": ".spans",
    "span_id": ".spans",
    "stage_trace_id": ".spans",
    "trace_id": ".spans",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "FleetTimeline",
    "JOURNAL_EVENTS",
    "JOURNAL_FORMAT",
    "JOURNAL_VERSION",
    "JournalDoc",
    "JournalWriter",
    "batch_trace_id",
    "check_timeline",
    "export_fleet_trace",
    "journal_digest",
    "journal_paths",
    "lease_span_id",
    "merge_journals",
    "read_journal",
    "render_campaign_dashboard",
    "render_fleet_dashboard",
    "span_id",
    "stage_trace_id",
    "strip_wall",
    "trace_id",
    "watch",
]
