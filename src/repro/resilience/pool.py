"""Supervised long-lived worker pool for spec execution.

The pool replaces the per-batch ``ProcessPoolExecutor`` the runtime
used before: workers are persistent processes (spawned on first use,
reused across batches) fed one content-hashed :class:`RunSpec` at a
time over a per-worker duplex :func:`multiprocessing.Pipe`.  Keeping
exactly one task in flight per worker is what makes supervision exact:
the watchdog always knows *which* spec a worker is running, so a hang
past ``timeout`` kills that worker and requeues that spec, and a crash
(EOF on the pipe — SIGKILL, segfault, OOM) is attributed to the right
task.  Per-worker pipes rather than shared queues matter for the same
reason: killing a worker mid-``put`` on a shared queue can corrupt the
queue for everyone, while a dead pipe just reads EOF.

Failures become :class:`FailureRecord`s and flow through the
:class:`RetryPolicy` (deterministic seeded backoff — eligibility times
on the monotonic clock, delays from the policy's hash).  When workers
keep dying (``max_worker_deaths``) the pool degrades to in-process
serial execution and finishes the batch, which is always possible
because :func:`execute_spec` is a pure function of the spec.

Fault plans (:mod:`repro.resilience.faults`) are serialised to every
worker, which activates the worker-side faults (kill/hang/error) keyed
on the global task submission index — deterministic under any
scheduling, so chaos runs reproduce.
"""

from __future__ import annotations

import heapq
import json
import multiprocessing as mp
import time
import weakref
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait

from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.policy import FailureRecord, RetryPolicy
from repro.runtime.spec import RunResult, RunSpec, execute_spec

#: Idle poll ceiling: the event loop re-checks deadlines/backoff at
#: least this often even with no pipe traffic.
_POLL_SECONDS = 0.25


def _worker_main(conn, plan_payload: str) -> None:
    """Worker loop: receive ``(index, attempt, spec)``, send the result.

    Runs until the parent sends ``None`` or the pipe dies.  Any
    exception from the spec (including injected ones) is reported as an
    ``("error", ...)`` message rather than killing the worker — only
    real crashes (SIGKILL, segfault) take the process down.
    """
    injector = None
    if plan_payload:
        injector = FaultInjector(
            FaultPlan.from_json(json.loads(plan_payload)), in_worker=True
        )
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        index, attempt, spec = message
        try:
            if injector is not None:
                injector.fire_task_faults(index, attempt)
            result = execute_spec(spec)
        except Exception as error:
            reply = ("error", index, attempt, f"{type(error).__name__}: {error}")
        else:
            reply = ("ok", index, attempt, result)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


def _reap(processes: list) -> None:
    """Finalizer: make sure no worker outlives its pool object."""
    for process in processes:
        try:
            if process.is_alive():
                process.kill()
        except (OSError, ValueError):
            pass


class _Task:
    __slots__ = ("index", "spec", "attempt")

    def __init__(self, index: int, spec: RunSpec) -> None:
        self.index = index
        self.spec = spec
        self.attempt = 0


class _Worker:
    __slots__ = ("process", "conn", "task", "deadline")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.task: _Task | None = None
        self.deadline: float | None = None


@dataclass
class PoolOutcome:
    """What one :meth:`SupervisedWorkerPool.execute` call observed."""

    results: dict[str, RunResult]
    failures: list[FailureRecord] = field(default_factory=list)
    retries: int = 0
    worker_deaths: int = 0
    timeouts: int = 0
    degraded: bool = False

    @property
    def permanent_failures(self) -> list[FailureRecord]:
        return [record for record in self.failures if not record.retried]


class SupervisedWorkerPool:
    """Persistent worker processes with watchdog, retry and degradation.

    ``timeout`` is the per-spec wall-clock budget (``None`` = no
    watchdog).  After ``max_worker_deaths`` crashes/timeouts the pool
    flips to degraded mode permanently and executes everything
    in-process (worker-only faults are skipped there — degradation
    exists to stop losing processes).
    """

    def __init__(
        self,
        workers: int,
        *,
        retry: RetryPolicy | None = None,
        timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
        max_worker_deaths: int | None = None,
        mp_context=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.retry = retry or RetryPolicy()
        self.timeout = timeout
        self.fault_plan = fault_plan
        self._plan_payload = (
            json.dumps(fault_plan.to_json()) if fault_plan is not None else ""
        )
        self.max_worker_deaths = (
            max_worker_deaths
            if max_worker_deaths is not None
            else max(3, 2 * workers)
        )
        if mp_context is None:
            try:
                mp_context = mp.get_context("fork")
            except ValueError:  # platforms without fork
                mp_context = mp.get_context()
        self._ctx = mp_context
        self._workers: list[_Worker] = []
        self._processes: list = []  # shared with the finalizer
        self._task_counter = 0
        self.worker_deaths = 0
        self.timeouts = 0
        self.retries = 0
        self.degraded = False
        self._finalizer = weakref.finalize(self, _reap, self._processes)

    # -- worker lifecycle ---------------------------------------------

    @property
    def active_workers(self) -> int:
        return len(self._workers)

    def _spawn(self) -> _Worker:
        # The child end is closed in the parent immediately after the
        # fork, so worker death reads as EOF on our end of the pipe.
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn, self._plan_payload), daemon=True
        )
        process.start()
        child_conn.close()
        worker = _Worker(process, parent_conn)
        self._workers.append(worker)
        self._processes.append(process)
        return worker

    def _retire(self, worker: _Worker, *, kill: bool = False) -> None:
        if worker in self._workers:
            self._workers.remove(worker)
        if kill or worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=2.0)
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process in self._processes:
            self._processes.remove(worker.process)
        self.worker_deaths += 1
        if self.worker_deaths >= self.max_worker_deaths:
            self.degraded = True

    def _idle_worker(self) -> _Worker | None:
        for worker in list(self._workers):
            if self.degraded:
                return None
            if worker.task is not None:
                continue
            if not worker.process.is_alive():
                self._retire(worker)
                continue
            return worker
        if len(self._workers) < self.workers and not self.degraded:
            return self._spawn()
        return None

    def shutdown(self, *, force: bool = False) -> None:
        """Stop all workers (sentinel + join, or kill when ``force``)."""
        workers, self._workers = self._workers, []
        if not force:
            for worker in workers:
                if worker.process.is_alive():
                    try:
                        worker.conn.send(None)
                    except (BrokenPipeError, OSError):
                        pass
        for worker in workers:
            if force:
                worker.process.kill()
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._processes.clear()

    # -- execution -----------------------------------------------------

    def execute(
        self,
        pending: Sequence[RunSpec],
        *,
        on_result: Callable[[RunSpec, RunResult], None] | None = None,
        on_failure: Callable[[FailureRecord], None] | None = None,
    ) -> PoolOutcome:
        """Run ``pending`` (unique specs) under supervision.

        ``on_result`` fires in the parent as each spec completes (cache
        write-back + progress); ``on_failure`` fires for every recorded
        failure, retried or not.  Returns when every spec has either a
        result or a permanent :class:`FailureRecord`.
        """
        base = {
            "retries": self.retries,
            "worker_deaths": self.worker_deaths,
            "timeouts": self.timeouts,
        }
        results: dict[str, RunResult] = {}
        failures: list[FailureRecord] = []
        ready: deque[_Task] = deque()
        waiting: list[tuple[float, int, _Task]] = []  # (eligible_at, index, task)
        for spec in pending:
            ready.append(_Task(self._task_counter, spec))
            self._task_counter += 1
        remaining = len(ready)

        def record_failure(task: _Task, kind: str, detail: str) -> int:
            """Retry or permanently fail ``task``; returns 1 when permanent."""
            retried = self.retry.should_retry(task.attempt)
            record = FailureRecord(
                spec_hash=task.spec.content_hash,
                label=task.spec.label(),
                kind=kind,
                attempt=task.attempt,
                detail=detail,
                retried=retried,
            )
            failures.append(record)
            if on_failure is not None:
                on_failure(record)
            if not retried:
                return 1
            self.retries += 1
            delay = self.retry.delay(task.spec.content_hash, task.attempt)
            task.attempt += 1
            heapq.heappush(waiting, (time.monotonic() + delay, task.index, task))
            return 0

        while remaining > 0:
            if self.degraded:
                # Reclaim in-flight work, stop the surviving workers and
                # finish everything left in-process.
                for worker in list(self._workers):
                    if worker.task is not None:
                        ready.append(worker.task)
                        worker.task = None
                        worker.deadline = None
                self.shutdown(force=True)
                leftovers = sorted(
                    list(ready) + [task for _, _, task in waiting],
                    key=lambda task: task.index,
                )
                ready.clear()
                waiting.clear()
                remaining -= self._run_in_process(
                    leftovers, results, failures, on_result, on_failure
                )
                break

            now = time.monotonic()
            while waiting and waiting[0][0] <= now:
                ready.append(heapq.heappop(waiting)[2])
            while ready:
                worker = self._idle_worker()
                if worker is None:
                    break
                task = ready.popleft()
                try:
                    worker.conn.send((task.index, task.attempt, task.spec))
                except (BrokenPipeError, OSError):
                    ready.appendleft(task)
                    self._retire(worker)
                    continue
                worker.task = task
                worker.deadline = (
                    now + self.timeout if self.timeout is not None else None
                )

            busy = [worker for worker in self._workers if worker.task is not None]
            if not busy:
                if ready:
                    continue  # degraded flipped (or spawn raced); re-enter
                if waiting:
                    pause = max(0.0, waiting[0][0] - time.monotonic())
                    time.sleep(min(pause, _POLL_SECONDS))
                    continue
                break  # nothing queued, nothing in flight

            poll = _POLL_SECONDS
            now = time.monotonic()
            deadlines = [w.deadline for w in busy if w.deadline is not None]
            if deadlines:
                poll = min(poll, max(0.0, min(deadlines) - now))
            if waiting:
                poll = min(poll, max(0.0, waiting[0][0] - now))
            readable = _connection_wait([w.conn for w in busy], timeout=poll)
            for conn in readable:
                if self.degraded:
                    break  # the degraded branch reclaims the rest
                worker = next(w for w in busy if w.conn is conn)
                task = worker.task
                if task is None:  # already handled this iteration
                    continue
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    worker.task = None
                    worker.deadline = None
                    self._retire(worker)
                    remaining -= record_failure(
                        task,
                        "crash",
                        f"worker pid {worker.process.pid} died while running "
                        f"task {task.index}",
                    )
                    continue
                worker.task = None
                worker.deadline = None
                status, index, attempt, payload = message
                if index != task.index or attempt != task.attempt:
                    ready.append(task)  # stale reply; never lose the task
                    continue
                if status == "ok":
                    results[task.spec.content_hash] = payload
                    remaining -= 1
                    if on_result is not None:
                        on_result(task.spec, payload)
                else:
                    remaining -= record_failure(task, "error", payload)

            now = time.monotonic()
            for worker in list(self._workers):
                if self.degraded:
                    break
                if (
                    worker.task is not None
                    and worker.deadline is not None
                    and now >= worker.deadline
                ):
                    task = worker.task
                    worker.task = None
                    worker.deadline = None
                    self.timeouts += 1
                    self._retire(worker, kill=True)
                    remaining -= record_failure(
                        task,
                        "timeout",
                        f"task {task.index} exceeded the {self.timeout:g}s "
                        "wall-clock budget; worker killed",
                    )

        return PoolOutcome(
            results=results,
            failures=failures,
            retries=self.retries - base["retries"],
            worker_deaths=self.worker_deaths - base["worker_deaths"],
            timeouts=self.timeouts - base["timeouts"],
            degraded=self.degraded,
        )

    def _run_in_process(
        self,
        tasks: list[_Task],
        results: dict[str, RunResult],
        failures: list[FailureRecord],
        on_result,
        on_failure,
    ) -> int:
        """Degraded path: finish ``tasks`` serially in the parent.

        Worker-only faults (kill/hang) do not fire here; ``spec_error``
        faults still do, and the retry budget still applies — but
        without backoff sleeps, since nothing contends.  Returns how
        many tasks reached a terminal state (all of them).
        """
        injector = (
            FaultInjector(self.fault_plan, in_worker=False)
            if self.fault_plan is not None
            else None
        )
        settled = 0
        for task in tasks:
            while True:
                try:
                    if injector is not None:
                        injector.fire_task_faults(task.index, task.attempt)
                    result = execute_spec(task.spec)
                except Exception as error:
                    retried = self.retry.should_retry(task.attempt)
                    record = FailureRecord(
                        spec_hash=task.spec.content_hash,
                        label=task.spec.label(),
                        kind="error",
                        attempt=task.attempt,
                        detail=f"{type(error).__name__}: {error}",
                        retried=retried,
                    )
                    failures.append(record)
                    if on_failure is not None:
                        on_failure(record)
                    if retried:
                        self.retries += 1
                        task.attempt += 1
                        continue
                    settled += 1
                    break
                results[task.spec.content_hash] = result
                if on_result is not None:
                    on_result(task.spec, result)
                settled += 1
                break
        return settled
