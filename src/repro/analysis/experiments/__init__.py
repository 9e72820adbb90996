"""One module per paper result.

=====================  =============================================
module                 paper result
=====================  =============================================
``fig3_area``          Figure 3 — router area overhead
``fig4_latency``       Figure 4 — latency/throughput, random+tornado
``saturation``         Section 5.2 — preemption rates in saturation
``table2_fairness``    Table 2 — hotspot throughput fairness
``fig5_preemption``    Figure 5 — adversarial preemption rates
``fig6_slowdown``      Figure 6 — slowdown + deviation from max-min
``fig7_energy``        Figure 7 — router energy per flit by hop type
``burst_fairness``     extension — QoS under bursty/replayed traffic
``pvc_vs_gsf``         extension — PVC vs GSF head-to-head
=====================  =============================================
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "format_burst_fairness": ".burst_fairness",
    "run_burst_fairness": ".burst_fairness",
    "format_fig3": ".fig3_area",
    "run_fig3": ".fig3_area",
    "format_fig4": ".fig4_latency",
    "run_fig4": ".fig4_latency",
    "format_fig5": ".fig5_preemption",
    "run_fig5": ".fig5_preemption",
    "format_fig6": ".fig6_slowdown",
    "run_fig6": ".fig6_slowdown",
    "format_fig7": ".fig7_energy",
    "run_fig7": ".fig7_energy",
    "format_pvc_vs_gsf": ".pvc_vs_gsf",
    "run_pvc_vs_gsf": ".pvc_vs_gsf",
    "format_saturation": ".saturation",
    "run_saturation": ".saturation",
    "format_table2": ".table2_fairness",
    "run_table2": ".table2_fairness",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "format_burst_fairness",
    "format_fig3",
    "format_fig4",
    "format_fig5",
    "format_fig6",
    "format_fig7",
    "format_pvc_vs_gsf",
    "format_saturation",
    "format_table2",
    "run_burst_fairness",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_pvc_vs_gsf",
    "run_saturation",
    "run_table2",
]
