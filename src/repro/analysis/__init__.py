"""Analysis utilities and the per-figure experiment harness.

``repro.analysis.experiments`` contains one module per paper result
(Figure 3, Figure 4a/4b, Table 2, Figure 5a/5b, Figure 6a/6b, Figure 7,
and the Section 5.2 saturation-preemption statistics); each returns
structured results and can render the same rows the paper reports.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "format_chip_study": ".chip_study",
    "run_chip_study": ".chip_study",
    "FairnessReport": ".fairness",
    "fairness_report": ".fairness",
    "max_min_allocation": ".fairness",
    "ReportOptions": ".report",
    "generate_report": ".report",
    "write_report": ".report",
    "LatencyPoint": ".sweep",
    "latency_throughput_sweep": ".sweep",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "FairnessReport",
    "LatencyPoint",
    "ReportOptions",
    "fairness_report",
    "format_chip_study",
    "generate_report",
    "latency_throughput_sweep",
    "max_min_allocation",
    "run_chip_study",
    "write_report",
]
