"""Quality-of-service policies for the shared-region network.

* :class:`~repro.qos.pvc.PvcPolicy` — Preemptive Virtual Clock (Grot,
  Keckler, Mutlu, MICRO 2009), the QoS mechanism the paper adopts for
  every shared-region topology.
* :class:`~repro.qos.gsf.GsfPolicy` — Globally-Synchronized Frames
  (Lee, Ng, Asanović, ISCA 2008), the frame-reservation scheme the
  paper positions PVC against: per-frame injection budgets with source
  throttling instead of preemption.
* :class:`~repro.qos.perflow.PerFlowQueuedPolicy` — an idealised
  preemption-free baseline with per-flow queuing, used as the reference
  for Figure 6's slowdown measurement.
* :class:`~repro.qos.base.NoQosPolicy` — FIFO arbitration with no flow
  state, modelling the unprotected regions of the chip (used by tests
  and the hotspot-starvation demonstration).

Policies are looked up *by name* through :mod:`repro.qos.registry` —
the single source of truth consumed by the runtime, CLI, experiments
and campaigns.  See ``docs/qos.md`` for the policy contract and a
walkthrough of adding a policy.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "NoQosPolicy": ".base",
    "PolicyCapabilities": ".base",
    "QosPolicy": ".base",
    "FlowTable": ".flow_table",
    "GsfPolicy": ".gsf",
    "PerFlowQueuedPolicy": ".perflow",
    "PROVISIONED_INJECTORS": ".pvc",
    "PvcPolicy": ".pvc",
    "PolicyEntry": ".registry",
    "available_policies": ".registry",
    "create_policy": ".registry",
    "get_policy": ".registry",
    "policy_entries": ".registry",
    "register_policy": ".registry",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "FlowTable",
    "GsfPolicy",
    "NoQosPolicy",
    "PerFlowQueuedPolicy",
    "PolicyCapabilities",
    "PolicyEntry",
    "PROVISIONED_INJECTORS",
    "PvcPolicy",
    "QosPolicy",
    "available_policies",
    "create_policy",
    "get_policy",
    "policy_entries",
    "register_policy",
]
