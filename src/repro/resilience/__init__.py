"""repro.resilience — failure-tolerant execution for the runtime.

The paper's mechanism treats loss as a protocol event (PVC discards
preempted packets and retransmits); this package gives the *runtime*
the same stance.  Four pieces:

* :mod:`~repro.resilience.policy` — deterministic
  :class:`RetryPolicy` (seeded exponential backoff, no wall-clock
  randomness) and structured :class:`FailureRecord`\\ s.
* :mod:`~repro.resilience.pool` — the :class:`SupervisedWorkerPool`
  behind :class:`~repro.runtime.executor.ParallelExecutor`: persistent
  workers, per-spec timeouts, crash/hang detection, degradation to
  in-process serial execution.
* :mod:`~repro.resilience.faults` — seeded, counter-keyed
  :class:`FaultPlan`\\ s (worker kill/hang, spec/adapter errors,
  cache corruption, torn manifest writes) so chaos is reproducible.
* :mod:`~repro.resilience.chaos` — the three-leg harness proving a
  killed/corrupted/hung campaign converges to digests byte-identical
  to an undisturbed serial run.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BUILTIN_PLANS": ".faults",
    "FAULT_KINDS": ".faults",
    "Fault": ".faults",
    "FaultInjector": ".faults",
    "FaultPlan": ".faults",
    "InjectedFault": ".faults",
    "load_plan": ".faults",
    "FailureRecord": ".policy",
    "RetryPolicy": ".policy",
    "PoolOutcome": ".pool",
    "SupervisedWorkerPool": ".pool",
    "ChaosReport": ".chaos",
    "run_chaos": ".chaos",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "BUILTIN_PLANS",
    "ChaosReport",
    "FAULT_KINDS",
    "FailureRecord",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "PoolOutcome",
    "RetryPolicy",
    "SupervisedWorkerPool",
    "load_plan",
    "run_chaos",
]
