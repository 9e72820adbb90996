"""Observability: probes, windowed metrics, timelines, run telemetry.

The layer has four parts, all off by default and free when off:

* :mod:`repro.obs.probes` — the :class:`ProbeBus` the engines emit
  into, guarded by one ``is not None`` check per hook site;
* :mod:`repro.obs.collect` — collectors over the bus
  (:class:`WindowedMetrics`, :class:`LifecycleCollector`,
  :class:`EngineActivityCollector`) and the :class:`ObsSession`
  bundle the runtime attaches when a spec carries obs config;
* :mod:`repro.obs.metricsfmt` / :mod:`repro.obs.chrometrace` — the
  versioned JSONL metrics format and the Perfetto-loadable Chrome
  trace exporter;
* :mod:`repro.obs.telemetry` — :class:`TelemetryExecutor` and the
  campaign ``--progress`` heartbeat;
* :mod:`repro.obs.fleet` — dispatch-layer observability: structured
  event journals, content-hash-derived trace correlation, fleet
  Chrome traces and the ``repro fleet`` / ``repro campaign watch``
  dashboards.

See ``docs/observability.md`` for the probe catalogue and schemas,
and ``docs/fleet.md`` for the journal format and span derivation.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "build_fleet_trace_events": ".chrometrace",
    "build_trace_events": ".chrometrace",
    "validate_chrome_trace": ".chrometrace",
    "write_chrome_trace": ".chrometrace",
    "FleetTimeline": ".fleet.fleetcollect",
    "JournalDoc": ".fleet.journal",
    "JournalWriter": ".fleet.journal",
    "check_timeline": ".fleet.fleetcollect",
    "export_fleet_trace": ".fleet.fleetcollect",
    "journal_digest": ".fleet.journal",
    "merge_journals": ".fleet.fleetcollect",
    "read_journal": ".fleet.journal",
    "strip_wall": ".fleet.journal",
    "DEFAULT_WINDOW": ".collect",
    "EngineActivityCollector": ".collect",
    "LifecycleCollector": ".collect",
    "ObsSession": ".collect",
    "WindowedMetrics": ".collect",
    "DEFAULT_LATENCY_BUCKETS": ".metricsfmt",
    "METRICS_FORMAT": ".metricsfmt",
    "METRICS_VERSION": ".metricsfmt",
    "MetricsDoc": ".metricsfmt",
    "read_metrics": ".metricsfmt",
    "read_run": ".metricsfmt",
    "write_metrics": ".metricsfmt",
    "write_run": ".metricsfmt",
    "ENGINE_EVENTS": ".probes",
    "PACKET_EVENTS": ".probes",
    "PROBE_EVENTS": ".probes",
    "ProbeBus": ".probes",
    "discover_metrics": ".report",
    "render_metrics_report": ".report",
    "render_report": ".report",
    "TELEMETRY_FORMAT": ".telemetry",
    "TELEMETRY_VERSION": ".telemetry",
    "TelemetryExecutor": ".telemetry",
    "heartbeat_printer": ".telemetry",
    "write_runtime_telemetry": ".telemetry",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_WINDOW",
    "ENGINE_EVENTS",
    "FleetTimeline",
    "JournalDoc",
    "JournalWriter",
    "METRICS_FORMAT",
    "METRICS_VERSION",
    "MetricsDoc",
    "ObsSession",
    "PACKET_EVENTS",
    "PROBE_EVENTS",
    "TELEMETRY_FORMAT",
    "TELEMETRY_VERSION",
    "ProbeBus",
    "EngineActivityCollector",
    "LifecycleCollector",
    "TelemetryExecutor",
    "WindowedMetrics",
    "build_fleet_trace_events",
    "build_trace_events",
    "check_timeline",
    "discover_metrics",
    "export_fleet_trace",
    "heartbeat_printer",
    "journal_digest",
    "merge_journals",
    "read_journal",
    "strip_wall",
    "read_metrics",
    "read_run",
    "render_metrics_report",
    "render_report",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_metrics",
    "write_run",
    "write_runtime_telemetry",
]
