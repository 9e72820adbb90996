"""Ablation studies over the design choices the paper leans on.

Each module isolates one mechanism and measures what the evaluation
would look like without (or with different sizing of) it:

=====================  ====================================================
module                 question
=====================  ====================================================
``quota``              how much does the reserved per-frame quota damp
                       adversarial preemption?
``reserved_vc``        what does the rate-compliant reserved VC buy?
``patience``           preemption-trigger sensitivity (inversion
                       detection window)
``frame``              frame length: guarantee granularity vs preemption
                       exposure
``window``             source retransmission window vs throughput
``replica_policy``     per-packet round-robin (the paper's thrash) vs
                       static per-flow replica pinning
``topology_extension`` the flattened-butterfly alternative the paper
                       names but does not evaluate
=====================  ====================================================
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "format_frame_ablation": ".frame",
    "run_frame_ablation": ".frame",
    "format_patience_ablation": ".patience",
    "run_patience_ablation": ".patience",
    "format_quota_ablation": ".quota",
    "run_quota_ablation": ".quota",
    "format_replica_ablation": ".replica_policy",
    "run_replica_ablation": ".replica_policy",
    "format_reserved_vc_ablation": ".reserved_vc",
    "run_reserved_vc_ablation": ".reserved_vc",
    "format_fbfly_study": ".topology_extension",
    "run_fbfly_study": ".topology_extension",
    "format_window_ablation": ".window",
    "run_window_ablation": ".window",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "format_fbfly_study",
    "format_frame_ablation",
    "format_patience_ablation",
    "format_quota_ablation",
    "format_replica_ablation",
    "format_reserved_vc_ablation",
    "format_window_ablation",
    "run_fbfly_study",
    "run_frame_ablation",
    "run_patience_ablation",
    "run_quota_ablation",
    "run_replica_ablation",
    "run_reserved_vc_ablation",
    "run_window_ablation",
]
