"""The benchmark's metric catalogue and the layer-to-workload mapping.

``END_TO_END`` metrics are host time or host resources a user of the
stack sees; they are measured with tracing off.  ``PER_LAYER`` metrics
come from the separate traced run.  Each per-layer entry names the
end-to-end metric it should move and the workload where it should move
it, so an issue that claims a gain in one layer can cite both names
unchanged.  ``BENCHMARK.json`` at the repository root mirrors these
tables (``tests/test_perfbench.py`` keeps them in step).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds one run measures (``run_seconds`` in ``BENCHMARK.json``).
RUN_SECONDS = 50

#: Workload names, in the order ``--workload all`` runs them.
WORKLOADS = ("pvc_adversarial", "campaign_cold")
ENGINE_WORKLOADS = WORKLOADS[:1]
CAMPAIGN_WORKLOADS = WORKLOADS[1:]

#: The 16 stages of the built-in ``smoke`` campaign.
SMOKE_STAGES = (
    "fig3",
    "fig7",
    "fig4",
    "table2",
    "fig5",
    "fig6",
    "saturation",
    "burst_fairness",
    "pvc_vs_gsf",
    "ablation_quota",
    "ablation_reserved_vc",
    "ablation_patience",
    "ablation_frame",
    "ablation_window",
    "ablation_replica",
    "ablation_fbfly",
)

#: QoS policies the traced run splits ``network.run_s`` by.
POLICY_SPLITS = ("pvc", "gsf", "noqos", "perflow")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    #: End-to-end metrics this layer metric should move ...
    moves: tuple[str, ...] = ()
    #: ... and the workloads on which it should move them.
    on: tuple[str, ...] = ()


END_TO_END = (
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("wall_s", "s", "lower", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.1),
    Metric("sim_cycles_per_s", "1/s", "higher", bound=0.25),
)

_PVC = ENGINE_WORKLOADS
_COLD = CAMPAIGN_WORKLOADS
_BOTH = WORKLOADS
_SPEED = ("wall_s", "sim_cycles_per_s")
_WALL = ("wall_s",)
_MODEL = ()  # model outputs: a speed-only change leaves them exactly equal


def _m(name, unit, better, moves, on):
    return Metric(name, unit, better, moves=moves, on=on)


PER_LAYER = (
    # network: ColumnSimulator construction and run/run_window/run_until_drained
    _m("network.run_s", "s", "lower", _SPEED, _BOTH),
    *(
        _m(f"network.run_s.{p}", "s", "lower", _WALL, _PVC if p == "pvc" else _COLD)
        for p in POLICY_SPLITS
    ),
    _m("network.run_s.low_rate", "s", "lower", _WALL, _COLD),
    _m("network.run_s.saturated", "s", "lower", _WALL, _BOTH),
    _m("network.runs", "count", "lower", (), ()),
    _m("network.construct_s", "s", "lower", _WALL, _COLD),
    _m("network.constructs", "count", "lower", (), ()),
    _m("network.sim_cycles", "count", "higher", _SPEED, _COLD),
    _m("network.skipped_cycles", "count", "higher", _SPEED, _COLD),
    _m("network.cycles_per_s", "1/s", "higher", _SPEED, _COLD),
    _m("network.hops", "count", "higher", _SPEED, _BOTH),
    _m("network.ns_per_hop", "ns", "lower", _SPEED, _BOTH),
    _m("network.arb_blocks", "count", "lower", _WALL, _PVC),
    _m("network.injector_arms", "count", "lower", _WALL, _COLD),
    _m("network.injector_sleeps", "count", "lower", _WALL, _COLD),
    _m("network.preemptions", "count", "lower", _MODEL, ()),
    _m("network.nacks", "count", "lower", _MODEL, ()),
    _m("network.wasted_hop_fraction", "ratio", "lower", _MODEL, ()),
    _m("network.delivered_flits", "count", "higher", _MODEL, ()),
    _m("network.accepted_ratio", "ratio", "higher", _MODEL, ()),
    # qos: call counts of the public QosPolicy methods the engine calls
    _m("qos.priority_calls", "count", "lower", _WALL, _PVC),
    _m("qos.compliance_calls", "count", "lower", _WALL, _PVC),
    _m("qos.forward_calls", "count", "lower", _WALL, _PVC),
    _m("qos.refund_calls", "count", "lower", _WALL, _PVC),
    _m("qos.frame_calls", "count", "lower", _WALL, _PVC),
    _m("qos.release_calls", "count", "lower", _WALL, _COLD),
    # topologies and traffic
    _m("topologies.build_s", "s", "lower", ("setup_s", "wall_s"), _COLD),
    _m("topologies.builds", "count", "lower", (), ()),
    _m("traffic.build_flows_s", "s", "lower", _WALL, _COLD),
    _m("traffic.build_flows_calls", "count", "lower", (), ()),
    _m("traffic.flows", "count", "lower", (), ()),
    # runtime: execute_spec, ResultCache and the executors
    _m("runtime.execute_spec_s.p50", "s", "lower", _WALL, _PVC),
    _m("runtime.execute_spec_s.tail", "s", "lower", _WALL, _PVC),
    _m("runtime.execute_spec_s.tail_pct", "%", "higher", (), ()),
    _m("runtime.execute_spec_s.count", "count", "higher", (), ()),
    _m("runtime.encode_s", "s", "lower", _WALL, _COLD),
    _m("runtime.cache_get_s", "s", "lower", _WALL, _COLD),
    _m("runtime.cache_hits", "count", "higher", (), ()),
    _m("runtime.cache_misses", "count", "lower", _WALL, _COLD),
    _m("runtime.cache_put_s", "s", "lower", _WALL, _COLD),
    _m("runtime.cache_puts", "count", "lower", _WALL, _COLD),
    _m("runtime.cache_bytes_written", "bytes", "lower", _WALL, _COLD),
    _m("runtime.executor_run_s", "s", "lower", _WALL, _COLD),
    _m("runtime.executor_batches", "count", "lower", _WALL, _COLD),
    # resilience: manifest telemetry of the supervised pool (all 0)
    _m("resilience.retries", "count", "lower", ("wall_s",), _COLD),
    _m("resilience.timeouts", "count", "lower", ("wall_s",), _COLD),
    _m("resilience.worker_deaths", "count", "lower", ("wall_s",), _COLD),
    # campaign: the runner and the analysis stage adapters
    _m("campaign.overhead_s", "s", "lower", _WALL, _COLD),
    *(
        _m(f"campaign.stage_s.{stage}", "s", "lower", _WALL, _COLD)
        for stage in SMOKE_STAGES
    ),
    _m("campaign.unrouted_stage_s", "s", "lower", _WALL, _COLD),
    # the benchmark itself
    _m("host.calibration_s", "s", "lower", (), ()),
    _m("bench.tracing_overhead", "ratio", "lower", (), ()),
    _m("bench.error_rate", "ratio", "lower", (), ()),
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document these tables describe."""
    from perfbench.workloads import WHY

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WHY[name]} for name in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
