"""The traced run: spans and counters at each layer boundary.

Nothing here copies program code.  :class:`Instrumentation` swaps the
public callables of each layer for thin wrappers that record a span
(name, start, end, parent, one trace id per spec) or bump a counter,
then call the original; :meth:`Instrumentation.remove` puts every
original back.  The wrapped layers are:

* ``runtime`` — ``execute_spec`` (where the executor, the worker pool
  and the benchmark look it up), ``ResultCache.get``/``put`` and
  ``SerialExecutor.run``/``ParallelExecutor.run``;
* ``topologies`` — every concrete ``build``;
* ``traffic`` — ``runtime.spec.build_flows``;
* ``network`` — ``ColumnSimulator.__init__`` and its three run methods,
  plus a :class:`~repro.obs.ProbeBus` per simulator for hop, skip,
  arbitration and preemption counts;
* ``qos`` — call counters on the public ``QosPolicy`` methods;
* ``campaign`` — each stage adapter's ``run``.

Pool workers are forked from the traced process, so they inherit the
wrappers; each writes its spans to ``dump_dir`` when it exits and the
parent merges them with :meth:`Tracer.merge_dumps`.  Spans stay in
memory until :func:`write_chrome_trace` writes them in the Chrome trace
format that Perfetto opens.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

#: Mean per-flow offered rate (flits/cycle) below which a simulation is
#: filed under ``network.run_s.low_rate`` rather than ``.saturated``.
LOW_RATE = 0.05

#: Counted QoS methods and the counter each one bumps.
QOS_METHODS = {
    "priority": "qos.priority_calls",
    "is_rate_compliant": "qos.compliance_calls",
    "on_forward": "qos.forward_calls",
    "on_refund": "qos.refund_calls",
    "on_frame": "qos.frame_calls",
    "injection_release": "qos.release_calls",
}


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        self.dump_dir: Path | None = None
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        #: ``NetworkStats`` of every traced simulator, summed at the end.
        self.stats: list = []
        self._stack: list[dict] = []
        self._ids = itertools.count(1)

    def reset(self) -> None:
        """Forget everything recorded (in place: wrappers hold these)."""
        self.spans.clear()
        self.counters.clear()
        self.stats.clear()
        self._stack.clear()

    @contextmanager
    def span(self, name: str, trace: str | None = None, **attrs):
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": f"{os.getpid()}.{next(self._ids)}",
            "name": name,
            "parent": parent["id"] if parent else None,
            "trace": trace or (parent["trace"] if parent else None),
            "pid": os.getpid(),
            "start": perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def model_totals(self) -> Counter:
        totals = Counter()
        for stats in self.stats:
            totals["delivered_flits"] += stats.delivered_flits
            totals["created_flits"] += stats.created_flits
            totals["wasted_tiles"] += stats.wasted_tiles
            totals["total_tiles"] += stats.total_tiles
        return totals

    def dump(self, path: Path) -> None:
        """Write this process's record for the parent to merge."""
        data = {
            "spans": self.spans,
            "counters": dict(self.counters),
            "model": dict(self.model_totals()),
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data), encoding="utf-8")
        os.replace(tmp, path)

    def merge_dumps(self, directory: Path) -> Counter:
        """Fold worker dumps into this tracer; returns their model totals."""
        model = Counter()
        for path in sorted(directory.glob("worker-*.json")):
            data = json.loads(path.read_text(encoding="utf-8"))
            self.spans.extend(data["spans"])
            self.counters.update(data["counters"])
            model.update(data["model"])
        return model


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span name: duration minus the time children cover.

    Children of one parent run one after another in its process, so
    the time they cover is the sum of their durations.
    """
    covered: Counter = Counter()
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    totals: Counter = Counter()
    for span in spans:
        totals[span["name"]] += span["end"] - span["start"] - covered[span["id"]]
    return dict(totals)


def check_tree(spans: list[dict]) -> list[str]:
    """Problems with the span tree: unknown parents, children outside them."""
    by_id = {span["id"]: span for span in spans}
    problems = []
    if len(by_id) != len(spans):
        problems.append("duplicate span ids")
    for span in spans:
        if span["end"] < span["start"]:
            problems.append(f"{span['id']} {span['name']}: ends before it starts")
        parent = span["parent"]
        if parent is None:
            continue
        outer = by_id.get(parent)
        if outer is None:
            problems.append(f"{span['id']} {span['name']}: unknown parent {parent}")
        elif not (
            outer["start"] <= span["start"]
            and span["end"] <= outer["end"]
            and outer["pid"] == span["pid"]
        ):
            problems.append(
                f"{span['id']} {span['name']}: outside parent {outer['name']}"
            )
    return problems


def write_chrome_trace(path: Path, spans: list[dict], counters: dict) -> None:
    """Chrome trace JSON (``traceEvents``), which Perfetto opens."""
    origin = min((span["start"] for span in spans), default=0.0)
    events = [
        {
            "name": span["name"],
            "cat": span["name"].split(".")[0],
            "ph": "X",
            "ts": (span["start"] - origin) * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "pid": span["pid"],
            "tid": span["pid"],
            "args": {
                "id": span["id"],
                "parent": span["parent"],
                "trace": span["trace"],
                **span["attrs"],
            },
        }
        for span in sorted(spans, key=lambda span: span["start"])
    ]
    end = max((event["ts"] + event["dur"] for event in events), default=0.0)
    events.extend(
        {
            "name": name,
            "ph": "C",
            "ts": end,
            "pid": os.getpid(),
            "args": {"value": value},
        }
        for name, value in sorted(counters.items())
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
        encoding="utf-8",
    )


class Instrumentation:
    """Installs (and removes) the layer wrappers around one tracer."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list = []

    # -- patching helpers ---------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(
            owner, name
        )
        self._undo.append((owner, name, original))
        setattr(owner, name, value)

    def _span_wrap(self, fn, name: str, attrs=None, after=None):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs is not None else {}
            with tracer.span(name, **extra):
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
            return result

        return wrapper

    def _count_wrap(self, fn, key: str):
        counters = self.tracer.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    # -- the layers ---------------------------------------------------

    def install(self) -> None:
        self._runtime()
        self._topologies()
        self._traffic()
        self._network()
        self._qos()
        self._campaign()
        self._pool()

    def _runtime(self) -> None:
        from repro.resilience import pool
        from repro.runtime import cache, executor, spec

        tracer = self.tracer
        original = spec.execute_spec
        traced = self._span_wrap(
            original,
            "runtime.execute_spec",
            attrs=lambda s: {"trace": s.content_hash[:16], "spec": s.label()},
        )
        for module in (spec, executor, pool):
            self._set(module, "execute_spec", traced)

        def cache_get_after(result, cache_self, spec_):
            key = "runtime.cache_misses" if result is None else "runtime.cache_hits"
            tracer.counters[key] += 1

        def cache_put_after(path, cache_self, spec_, result):
            tracer.counters["runtime.cache_puts"] += 1
            tracer.counters["runtime.cache_bytes_written"] += path.stat().st_size

        store = cache.ResultCache
        self._set(
            store,
            "get",
            self._span_wrap(store.get, "runtime.cache_get", after=cache_get_after),
        )
        self._set(
            store,
            "put",
            self._span_wrap(store.put, "runtime.cache_put", after=cache_put_after),
        )
        for cls in (executor.SerialExecutor, executor.ParallelExecutor):
            self._set(cls, "run", self._span_wrap(cls.run, "runtime.executor_run"))

    def _topologies(self) -> None:
        from repro.topologies.base import ColumnTopology

        seen = set()
        pending = list(ColumnTopology.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if cls in seen or "build" not in cls.__dict__:
                continue
            seen.add(cls)
            self._set(
                cls,
                "build",
                self._span_wrap(
                    cls.__dict__["build"],
                    "topologies.build",
                    attrs=lambda topo, *a, **k: {"topology": topo.name},
                ),
            )

    def _traffic(self) -> None:
        from repro.runtime import spec

        counters = self.tracer.counters

        def after(flows, spec_):
            counters["traffic.flows"] += len(flows)

        self._set(
            spec,
            "build_flows",
            self._span_wrap(spec.build_flows, "traffic.build_flows", after=after),
        )

    def _network(self) -> None:
        from repro.network.engine import ColumnSimulator
        from repro.qos.registry import policy_name_of

        tracer = self.tracer
        counters = tracer.counters
        init = ColumnSimulator.__dict__["__init__"]

        def traced_init(sim, *args, **kwargs):
            with tracer.span("network.construct"):
                init(sim, *args, **kwargs)
            _attach_counters(sim, counters)
            tracer.stats.append(sim.stats)

        self._set(ColumnSimulator, "__init__", functools.wraps(init)(traced_init))

        def run_attrs(sim, *args, **kwargs):
            flows = sim.flows
            mean_rate = sum(flow.rate for flow in flows) / len(flows)
            return {
                "policy": policy_name_of(type(sim.policy)) or type(sim.policy).__name__,
                "load": "low_rate" if mean_rate < LOW_RATE else "saturated",
                "start_cycle": sim.cycle,
            }

        for name in ("run", "run_window", "run_until_drained"):
            method = ColumnSimulator.__dict__[name]
            self._set(
                ColumnSimulator,
                name,
                _cycle_counting(tracer, self._span_wrap(method, "network.run", run_attrs)),
            )

    def _qos(self) -> None:
        from repro.qos.registry import policy_entries

        classes = {
            cls for entry in policy_entries() for cls in entry.factory.__mro__
        }
        for cls in classes:
            for method, key in QOS_METHODS.items():
                if method in cls.__dict__:
                    self._set(cls, method, self._count_wrap(cls.__dict__[method], key))

    def _campaign(self) -> None:
        from repro.campaign import stages

        adapters = stages.STAGE_ADAPTERS
        for kind, adapter in list(adapters.items()):
            traced = dataclasses.replace(
                adapter,
                run=self._span_wrap(
                    adapter.run, "campaign.stage", attrs=_stage_attrs(kind)
                ),
            )
            self._undo.append((adapters, kind, adapter))
            adapters[kind] = traced

    def _pool(self) -> None:
        from repro.resilience import pool

        tracer = self.tracer
        original = pool._worker_main

        def traced_worker_main(conn, plan_payload):
            # A forked worker starts from a copy of the parent's record.
            tracer.reset()
            try:
                original(conn, plan_payload)
            finally:
                if tracer.dump_dir is not None:
                    tracer.dump(tracer.dump_dir / f"worker-{os.getpid()}.json")

        self._set(pool, "_worker_main", traced_worker_main)


def _stage_attrs(kind: str):
    return lambda *args, **kwargs: {"stage": kind}


def _cycle_counting(tracer: Tracer, fn):
    """Adds the cycles a run call advanced to ``network.sim_cycles``."""

    @functools.wraps(fn)
    def wrapper(sim, *args, **kwargs):
        start = sim.cycle
        try:
            return fn(sim, *args, **kwargs)
        finally:
            tracer.counters["network.sim_cycles"] += sim.cycle - start

    return wrapper


def _attach_counters(sim, counters: Counter) -> None:
    """Subscribe event counters on a fresh probe bus for ``sim``."""
    from repro.obs.probes import ProbeBus

    bus = ProbeBus()

    def hop(cycle, pid, flow, port_index, port_label, size, is_ejection):
        counters["network.hops"] += size

    def skip(cycle, target):
        counters["network.skipped_cycles"] += target - cycle - 1

    def counting(key):
        def callback(*args):
            counters[key] += 1

        return callback

    bus.subscribe("hop", hop)
    bus.subscribe("skip", skip)
    bus.subscribe("arb_block", counting("network.arb_blocks"))
    bus.subscribe("arm", counting("network.injector_arms"))
    bus.subscribe("sleep", counting("network.injector_sleeps"))
    bus.subscribe("preempt", counting("network.preemptions"))
    bus.subscribe("nack", counting("network.nacks"))
    bus.attach(sim)
