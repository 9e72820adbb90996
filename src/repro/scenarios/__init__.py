"""Traffic scenarios: bursty processes, trace replay, closed-loop clients.

Three families beyond the paper's open-loop Bernoulli workloads:

* **Injection processes** (:mod:`repro.scenarios.injection`) — on/off
  (MMPP-style) bursts, self-similar Pareto bursts, and multi-phase
  schedules that change rate/pattern/priority at epoch boundaries.
  Each exposes the ``next_emission(cycle, rng)`` contract the
  activity-tracked engine arms its injectors with, so idle-cycle
  skipping keeps working.
* **Record and replay** (:mod:`repro.scenarios.tracefmt`) — a versioned
  JSONL trace of every packet creation; re-injecting a trace reproduces
  the source run bit-exactly.
* **Closed-loop clients** (:func:`closed_loop_workload`) — bounded
  outstanding requests with replies generated at the destination, for
  saturation studies under backpressure.

See ``docs/scenarios.md`` for the contracts and the file format.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BernoulliProcess": ".injection",
    "InjectionProcess": ".injection",
    "OnOffProcess": ".injection",
    "ParetoBurstProcess": ".injection",
    "Phase": ".injection",
    "PhasedProcess": ".injection",
    "TRACE_FORMAT": ".tracefmt",
    "TRACE_VERSION": ".tracefmt",
    "ScenarioTrace": ".tracefmt",
    "TraceFlow": ".tracefmt",
    "capture_to_trace": ".tracefmt",
    "file_sha256": ".tracefmt",
    "read_trace": ".tracefmt",
    "snapshot_digest": ".tracefmt",
    "write_trace": ".tracefmt",
    "bursty_workload": ".workloads",
    "closed_loop_workload": ".workloads",
    "pareto_workload": ".workloads",
    "parse_phases": ".workloads",
    "phased_workload": ".workloads",
    "replayed_workload": ".workloads",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "BernoulliProcess",
    "InjectionProcess",
    "OnOffProcess",
    "ParetoBurstProcess",
    "Phase",
    "PhasedProcess",
    "ScenarioTrace",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TraceFlow",
    "bursty_workload",
    "capture_to_trace",
    "closed_loop_workload",
    "file_sha256",
    "pareto_workload",
    "parse_phases",
    "phased_workload",
    "read_trace",
    "replayed_workload",
    "snapshot_digest",
    "write_trace",
]
