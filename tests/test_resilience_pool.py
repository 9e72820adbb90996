"""Supervised pool under injected faults: retry, watchdog, degradation."""

import pytest

from repro.errors import ExecutionFailed
from repro.network.config import SimulationConfig
from repro.resilience import Fault, FaultPlan, RetryPolicy
from repro.resilience import pool as pool_module
from repro.resilience.pool import SupervisedWorkerPool
from repro.runtime.executor import ParallelExecutor, SerialExecutor
from repro.runtime.spec import RunSpec

_CFG = SimulationConfig(frame_cycles=2000, seed=4)

#: Backoff tuned for tests: retries are immediate, determinism intact.
_FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


def _specs(count=2, cycles=300):
    return [
        RunSpec(topology="mesh_x1", workload="uniform",
                rate=0.03 + 0.01 * index, config=_CFG,
                cycles=cycles, warmup=cycles // 4)
        for index in range(count)
    ]


def test_worker_kill_is_retried_to_the_serial_answer():
    specs = _specs()
    serial = SerialExecutor().map(specs)
    plan = FaultPlan(name="kill", faults=(Fault(kind="worker_kill", at=0),))
    with ParallelExecutor(jobs=2, retry=_FAST_RETRY, fault_plan=plan) as ex:
        outcome = ex.run(specs)
    assert outcome.results == serial
    assert outcome.worker_deaths == 1
    assert outcome.retries == 1
    assert [f.kind for f in outcome.failures] == ["crash"]
    assert outcome.failures[0].retried


def test_hung_worker_is_killed_by_the_watchdog_and_the_spec_retried():
    specs = _specs()
    serial = SerialExecutor().map(specs)
    plan = FaultPlan(
        name="hang", faults=(Fault(kind="worker_hang", at=0, seconds=30.0),)
    )
    with ParallelExecutor(
        jobs=2, retry=_FAST_RETRY, timeout=0.75, fault_plan=plan
    ) as ex:
        outcome = ex.run(specs)
    assert outcome.results == serial
    assert outcome.timeouts == 1
    assert [f.kind for f in outcome.failures] == ["timeout"]


def test_exhausted_retries_raise_execution_failed_with_partial_outcome():
    specs = _specs()
    plan = FaultPlan(
        name="err", faults=(Fault(kind="spec_error", at=0, attempts=5),)
    )
    observed = []
    ex = ParallelExecutor(
        jobs=2,
        retry=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0),
        fault_plan=plan,
    )
    ex.failure_listener = observed.append
    with ex:
        with pytest.raises(ExecutionFailed) as excinfo:
            ex.run(specs)
    error = excinfo.value
    assert [f.kind for f in error.failures] == ["error"]
    assert not error.failures[0].retried
    assert "InjectedFault" in error.failures[0].detail
    # The rest of the batch completed before the failure surfaced.
    assert error.outcome is not None and error.outcome.simulated == 1
    # attempt 0 (retried) + attempt 1 (permanent), both observed live.
    assert [r.retried for r in observed] == [True, False]


def test_repeated_deaths_degrade_to_in_process_and_still_finish():
    specs = _specs()
    serial = SerialExecutor().map(specs)
    plan = FaultPlan(
        name="storm",
        faults=(Fault(kind="worker_kill", at=0, attempts=10),
                Fault(kind="worker_kill", at=1, attempts=10)),
    )
    with ParallelExecutor(
        jobs=2,
        retry=RetryPolicy(max_attempts=10, backoff_base=0.0, jitter=0.0),
        fault_plan=plan,
        max_worker_deaths=2,
    ) as ex:
        outcome = ex.run(specs)
    assert outcome.degraded
    assert outcome.worker_deaths == 2
    assert outcome.results == serial  # in-process path skips kill faults


def test_deaths_reported_together_stop_counting_once_degraded(monkeypatch):
    # The first poll reports only the first worker's death, so its task
    # is retried on a fresh worker that dies again.  Every later poll
    # waits until all busy workers are dead and reports them together:
    # the pool must stop counting at the limit and reclaim the rest.
    real_wait = pool_module._connection_wait
    polls = []

    def wait(conns, timeout=None):
        polls.append(len(conns))
        if len(polls) == 1:
            return real_wait(conns[:1])
        for conn in conns:
            real_wait([conn])
        return list(conns)

    monkeypatch.setattr(pool_module, "_connection_wait", wait)
    specs = _specs()
    serial = SerialExecutor().map(specs)
    plan = FaultPlan(
        name="storm",
        faults=(Fault(kind="worker_kill", at=0, attempts=10),
                Fault(kind="worker_kill", at=1, attempts=10)),
    )
    pool = SupervisedWorkerPool(
        2,
        retry=RetryPolicy(max_attempts=10, backoff_base=0.0, jitter=0.0),
        fault_plan=plan,
        max_worker_deaths=2,
    )
    try:
        outcome = pool.execute(specs)
    finally:
        pool.shutdown(force=True)
    assert polls == [2, 2]
    assert outcome.degraded
    assert outcome.worker_deaths == 2
    assert pool.active_workers == 0
    assert [outcome.results[spec.content_hash] for spec in specs] == serial


def test_keyboard_interrupt_force_closes_the_pool():
    closed = {}

    class InterruptingPool:
        def execute(self, *args, **kwargs):
            raise KeyboardInterrupt

        def shutdown(self, *, force=False):
            closed["force"] = force

    ex = ParallelExecutor(jobs=2)
    ex._pool = InterruptingPool()
    with pytest.raises(KeyboardInterrupt):
        ex.run(_specs())
    assert closed == {"force": True}
    assert ex._pool is None  # a later run would respawn cleanly


def test_pool_workers_persist_across_batches():
    pool = SupervisedWorkerPool(2, retry=_FAST_RETRY)
    try:
        first = pool.execute(_specs(cycles=200))
        pids = {worker.process.pid for worker in pool._workers}
        assert pids and all(first.results.values())
        second = pool.execute(_specs(cycles=250))
        assert {w.process.pid for w in pool._workers} == pids
        assert len(second.results) == 2
        assert second.worker_deaths == 0 and second.retries == 0
    finally:
        pool.shutdown()
    assert pool.active_workers == 0


def test_pool_validation_and_outcome_properties():
    with pytest.raises(ValueError):
        SupervisedWorkerPool(0)
    from repro.resilience.pool import PoolOutcome
    from repro.resilience.policy import FailureRecord

    retried = FailureRecord(spec_hash="a" * 64, label="x", kind="crash",
                            attempt=0, detail="", retried=True)
    permanent = FailureRecord(spec_hash="b" * 64, label="y", kind="error",
                              attempt=1, detail="", retried=False)
    outcome = PoolOutcome(results={}, failures=[retried, permanent])
    assert outcome.permanent_failures == [permanent]
