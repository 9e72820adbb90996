"""Synthetic traffic: destination patterns and workload builders.

The paper evaluates the shared column on stochastic synthetic traffic
(Table 1: hotspot, uniform random, tornado; 1- and 4-flit packets) plus
two crafted adversarial workloads that defeat PVC's preemption throttles
(Section 5.3).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "bit_reversal": ".patterns",
    "hotspot": ".patterns",
    "nearest_neighbor": ".patterns",
    "tornado": ".patterns",
    "uniform_random": ".patterns",
    "WORKLOAD1_RATES": ".workloads",
    "WORKLOAD2_EXTRA_RATE": ".workloads",
    "full_column_workload": ".workloads",
    "hotspot_all_injectors": ".workloads",
    "tornado_workload": ".workloads",
    "uniform_workload": ".workloads",
    "workload1": ".workloads",
    "workload2": ".workloads",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "WORKLOAD1_RATES",
    "WORKLOAD2_EXTRA_RATE",
    "bit_reversal",
    "full_column_workload",
    "hotspot",
    "hotspot_all_injectors",
    "nearest_neighbor",
    "tornado",
    "tornado_workload",
    "uniform_random",
    "uniform_workload",
    "workload1",
    "workload2",
]
