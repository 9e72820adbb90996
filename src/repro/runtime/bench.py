"""Engine benchmark harness: optimised vs golden reference timings.

Every point runs the *same* workload through the activity-tracked
:class:`~repro.network.engine.ColumnSimulator` and the frozen
:class:`~repro.network.golden.GoldenColumnSimulator`, verifies the two
produce identical :meth:`NetworkStats.snapshot` dumps (a benchmark that
silently changed results would be worse than useless), and reports the
wall-clock ratio.  Consumers:

* ``benchmarks/bench_engine.py`` records the numbers to
  ``BENCH_engine.json`` at the repo root;
* ``repro bench engine`` prints them from the console script.

The default matrix brackets the regimes the optimisation targets: the
low-injection left edge of the latency curves (where cycle skipping and
geometric inter-arrival sampling shine) and a point past saturation
(where the engine falls back to dense single-stepping and must not
regress).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from repro import __version__
from repro.network.config import SimulationConfig
from repro.network.engine import ColumnSimulator
from repro.network.golden import GoldenColumnSimulator
from repro.topologies.registry import get_topology
from repro.traffic.workloads import full_column_workload, offered_load

#: File name of the committed baseline at the repository root.
BENCH_ENGINE_FILENAME = "BENCH_engine.json"


@dataclass(frozen=True)
class EnginePoint:
    """One benchmark point: a workload pinned to one simulation regime."""

    name: str
    topology: str
    rate: float
    cycles: int
    warmup: int = 0
    regime: str = "low_rate"  # or "mid_rate", "saturation", "bursty", ...
    workload: str = "full_column"  # or "bursty" (scenario on/off sources)
    policy: str = "pvc"  # any registered QoS policy name
    config: SimulationConfig = field(
        default_factory=lambda: SimulationConfig(frame_cycles=2000, seed=3)
    )

    def flows(self):
        if self.workload == "bursty":
            from repro.scenarios import bursty_workload
            from repro.traffic.patterns import hotspot

            # Bursty hotspot: every burst oversubscribes node 0's
            # ejection port, so the point exercises the saturated
            # blocked-port machinery *and* the idle-gap skipping.
            return bursty_workload(self.rate, pattern=hotspot(0))
        return full_column_workload(self.rate)


@dataclass(frozen=True)
class EngineResult:
    """Timings for one point (seconds, best of ``repeats`` runs)."""

    point: EnginePoint
    optimized_seconds: float
    golden_seconds: float
    stats_equal: bool

    @property
    def speedup(self) -> float:
        if self.optimized_seconds <= 0:
            return float("inf")
        return self.golden_seconds / self.optimized_seconds


def default_points(*, fast: bool = False) -> tuple[EnginePoint, ...]:
    """The committed benchmark matrix (``fast`` shrinks cycle budgets).

    Covers every shared-column topology at saturation (where the
    figure-4/5/6 sweeps spend most of their wall-clock), the low-rate
    left edge of the latency curves, and a mid-rate knee point.
    """
    low_cycles, low_warmup = (1500, 300) if fast else (6000, 1500)
    mid_cycles, mid_warmup = (1200, 300) if fast else (4000, 1000)
    sat_cycles = 800 if fast else 3000
    return (
        EnginePoint("low_rate_mecs_0p01", "mecs", 0.01, low_cycles, low_warmup,
                    regime="low_rate"),
        EnginePoint("low_rate_mesh_x1_0p01", "mesh_x1", 0.01, low_cycles,
                    low_warmup, regime="low_rate"),
        EnginePoint("mid_rate_mesh_x1_0p10", "mesh_x1", 0.10, mid_cycles,
                    mid_warmup, regime="mid_rate"),
        EnginePoint("saturation_mecs_0p30", "mecs", 0.30, sat_cycles,
                    regime="saturation"),
        EnginePoint("saturation_mesh_x1_0p30", "mesh_x1", 0.30, sat_cycles,
                    regime="saturation"),
        EnginePoint("saturation_dps_0p30", "dps", 0.30, sat_cycles,
                    regime="saturation"),
        EnginePoint("saturation_fbfly_0p30", "fbfly", 0.30, sat_cycles,
                    regime="saturation"),
        # Non-stationary regime (scenarios subsystem): on/off sources
        # that saturate during bursts and go silent between them, so
        # both the hot path and the cycle skipper matter at once.
        EnginePoint("bursty_saturation", "mecs", 0.60, sat_cycles * 2,
                    regime="bursty", workload="bursty"),
        # Frame-throttled regime (GSF policy): short frames against a
        # saturating load park most packets on future frame windows, so
        # the engine alternates between dense drains at each boundary
        # and budget-exhausted gaps the cycle skipper must leap without
        # overshooting the next admissible release.
        EnginePoint("gsf_throttled_mecs_0p30", "mecs", 0.30, sat_cycles,
                    regime="gsf_throttled", policy="gsf",
                    config=SimulationConfig(frame_cycles=500, seed=3)),
    )


def filter_points(
    points: tuple[EnginePoint, ...],
    *,
    regimes: tuple[str, ...] | None = None,
    topologies: tuple[str, ...] | None = None,
) -> tuple[EnginePoint, ...]:
    """Restrict a point matrix to the given regimes and/or topologies."""
    selected = tuple(
        point
        for point in points
        if (regimes is None or point.regime in regimes)
        and (topologies is None or point.topology in topologies)
    )
    return selected


def _time_one(cls, point: EnginePoint) -> tuple[float, dict]:
    from repro.qos.registry import create_policy

    build = get_topology(point.topology).build(point.config)
    simulator = cls(build, point.flows(), create_policy(point.policy),
                    point.config)
    started = time.perf_counter()
    simulator.run(point.cycles, warmup=point.warmup)
    return time.perf_counter() - started, simulator.stats.snapshot()


def run_point(point: EnginePoint, *, repeats: int = 2) -> EngineResult:
    """Benchmark one point, best-of-``repeats`` per engine."""
    best_optimized = best_golden = float("inf")
    snap_optimized = snap_golden = None
    for _ in range(max(1, repeats)):
        seconds, snap_optimized = _time_one(ColumnSimulator, point)
        best_optimized = min(best_optimized, seconds)
        seconds, snap_golden = _time_one(GoldenColumnSimulator, point)
        best_golden = min(best_golden, seconds)
    return EngineResult(
        point=point,
        optimized_seconds=round(best_optimized, 4),
        golden_seconds=round(best_golden, 4),
        stats_equal=snap_optimized == snap_golden,
    )


def run_engine_bench(
    *, fast: bool = False, repeats: int = 2,
    points: tuple[EnginePoint, ...] | None = None,
    regimes: tuple[str, ...] | None = None,
    topologies: tuple[str, ...] | None = None,
) -> list[EngineResult]:
    """Run the matrix, optionally filtered; see :func:`default_points`."""
    selected = filter_points(
        points or default_points(fast=fast),
        regimes=regimes, topologies=topologies,
    )
    return [run_point(point, repeats=repeats) for point in selected]


def format_engine_bench(results: list[EngineResult]) -> str:
    """Human-readable table for the CLI."""
    lines = [
        "engine benchmark (optimised vs frozen golden reference)",
        f"{'point':26s} {'regime':10s} {'optimised':>10s} {'golden':>10s} "
        f"{'speedup':>8s}  stats",
    ]
    for result in results:
        lines.append(
            f"{result.point.name:26s} {result.point.regime:10s} "
            f"{result.optimized_seconds:9.3f}s {result.golden_seconds:9.3f}s "
            f"{result.speedup:7.2f}x  "
            + ("identical" if result.stats_equal else "DIVERGED!")
        )
    return "\n".join(lines)


#: Points timed by ``repro bench obs`` (a bracket of the full matrix:
#: idle-dominated, saturated, and non-stationary bursty traffic).
OBS_POINT_NAMES = (
    "low_rate_mecs_0p01",
    "saturation_mecs_0p30",
    "bursty_saturation",
)

#: Default ceiling for probes-*enabled* overhead (on/off - 1).  The
#: enabled path pays a Python callback per packet event plus windowed
#: accumulation, so it is expected to cost real time; the guard only
#: keeps it bounded.  The *disabled* path is guarded much harder: it
#: must keep beating the golden reference (``speedup_off >= 1.0``).
MAX_ENABLED_OVERHEAD = 1.5


@dataclass(frozen=True)
class ObsOverheadResult:
    """Probe-overhead timings for one point (seconds, best of repeats).

    ``off`` is the default engine (``_probes is None``), ``on`` the same
    engine with a full :class:`~repro.obs.ObsSession` (timeline
    included) attached, ``golden`` the frozen reference with the same
    session.  ``stats_equal`` requires all three snapshots identical —
    probes are observational and must never perturb results.
    """

    point: EnginePoint
    off_seconds: float
    on_seconds: float
    golden_seconds: float
    stats_equal: bool

    @property
    def speedup_off(self) -> float:
        """Golden / probes-off: the disabled-probe performance floor."""
        if self.off_seconds <= 0:
            return float("inf")
        return self.golden_seconds / self.off_seconds

    @property
    def enabled_overhead(self) -> float:
        """Fractional slowdown of probes-on vs probes-off (0.1 = +10%)."""
        if self.off_seconds <= 0:
            return 0.0
        return self.on_seconds / self.off_seconds - 1.0


def _time_one_obs(cls, point: EnginePoint) -> tuple[float, dict]:
    """Like :func:`_time_one` but with a full ObsSession attached."""
    from repro.obs import ObsSession
    from repro.qos.registry import create_policy

    build = get_topology(point.topology).build(point.config)
    simulator = cls(build, point.flows(), create_policy(point.policy),
                    point.config)
    session = ObsSession(timeline=True)
    session.attach(simulator)
    started = time.perf_counter()
    simulator.run(point.cycles, warmup=point.warmup)
    elapsed = time.perf_counter() - started
    session.finalize(simulator.cycle)
    return elapsed, simulator.stats.snapshot()


def run_obs_overhead(
    *, fast: bool = False, repeats: int = 2,
    points: tuple[EnginePoint, ...] | None = None,
) -> list[ObsOverheadResult]:
    """Time probes-off vs probes-on vs golden on the obs point subset."""
    selected = points or tuple(
        point for point in default_points(fast=fast)
        if point.name in OBS_POINT_NAMES
    )
    results = []
    for point in selected:
        best_off = best_on = best_golden = float("inf")
        snap_off = snap_on = snap_golden = None
        for _ in range(max(1, repeats)):
            seconds, snap_off = _time_one(ColumnSimulator, point)
            best_off = min(best_off, seconds)
            seconds, snap_on = _time_one_obs(ColumnSimulator, point)
            best_on = min(best_on, seconds)
            seconds, snap_golden = _time_one_obs(GoldenColumnSimulator, point)
            best_golden = min(best_golden, seconds)
        results.append(
            ObsOverheadResult(
                point=point,
                off_seconds=round(best_off, 4),
                on_seconds=round(best_on, 4),
                golden_seconds=round(best_golden, 4),
                stats_equal=snap_off == snap_on == snap_golden,
            )
        )
    return results


def format_obs_overhead(results: list[ObsOverheadResult]) -> str:
    """Human-readable probe-overhead table for the CLI."""
    lines = [
        "probe overhead (probes off vs full ObsSession vs golden reference)",
        f"{'point':26s} {'off':>9s} {'on':>9s} {'golden':>9s} "
        f"{'overhead':>9s} {'floor':>7s}  stats",
    ]
    for result in results:
        lines.append(
            f"{result.point.name:26s} {result.off_seconds:8.3f}s "
            f"{result.on_seconds:8.3f}s {result.golden_seconds:8.3f}s "
            f"{result.enabled_overhead:8.1%} {result.speedup_off:6.2f}x  "
            + ("identical" if result.stats_equal else "DIVERGED!")
        )
    return "\n".join(lines)


def record_obs_baseline(
    results: list[ObsOverheadResult], path: str | os.PathLike,
    *, max_enabled_overhead: float = MAX_ENABLED_OVERHEAD,
) -> None:
    """Merge obs-overhead results into the ``_obs`` baseline section."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        data = {}
    section = data.setdefault("_obs", {})
    section["max_enabled_overhead"] = max_enabled_overhead
    points = section.setdefault("points", {})
    for result in results:
        points[result.point.name] = {
            "regime": result.point.regime,
            "timings_seconds": {
                "off": result.off_seconds,
                "on": result.on_seconds,
                "golden": result.golden_seconds,
            },
            "speedup_off": round(result.speedup_off, 3),
            "enabled_overhead": round(result.enabled_overhead, 4),
            "stats_equal": result.stats_equal,
        }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _validate_obs_section(data: dict) -> list[str]:
    """Violations in a baseline's ``_obs`` probe-overhead section."""
    section = data.get("_obs")
    if not section:
        return []
    violations: list[str] = []
    ceiling = section.get("max_enabled_overhead", MAX_ENABLED_OVERHEAD)
    for name, entry in sorted(section.get("points", {}).items()):
        if not entry.get("stats_equal", False):
            violations.append(
                f"obs:{name}: stats_equal is false — probes perturbed results"
            )
        speedup = entry.get("speedup_off", 0.0)
        if speedup < 1.0:
            violations.append(
                f"obs:{name}: disabled-probe speedup {speedup} < 1.0 — "
                "probe hooks cost the engine its lead over golden"
            )
        overhead = entry.get("enabled_overhead", 0.0)
        if overhead > ceiling:
            violations.append(
                f"obs:{name}: enabled overhead {overhead:.1%} exceeds the "
                f"{ceiling:.0%} ceiling"
            )
    return violations


def validate_engine_baseline(path: str | os.PathLike) -> tuple[list[str], dict]:
    """Regression-check a committed baseline file.

    Every recorded point must have ``stats_equal: true`` (the engines
    agreed bit-for-bit when it was recorded) and a speedup of at least
    1.0 (the optimised engine never loses to the reference).  A
    baseline with an ``_obs`` section (``repro bench obs --record``)
    additionally guards the probe layer: probes must not perturb
    snapshots, the probes-*disabled* engine must keep its speedup floor,
    and probes-*enabled* overhead must stay under the recorded ceiling.
    Returns the list of violations (empty = clean) and the parsed
    baseline.
    """
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    violations: list[str] = []
    if not any(not name.startswith("_") for name in data):
        violations.append(
            "baseline records no benchmark points — nothing is guarded"
        )
    for name, entry in sorted(data.items()):
        if name.startswith("_"):
            continue
        if not entry.get("stats_equal", False):
            violations.append(f"{name}: stats_equal is false — engines diverged")
        speedup = entry.get("speedup", 0.0)
        if speedup < 1.0:
            violations.append(
                f"{name}: speedup {speedup} < 1.0 — optimised engine regressed"
            )
    violations.extend(_validate_obs_section(data))
    return violations, data


def format_baseline_markdown(data: dict) -> str:
    """Markdown speedup table of a baseline (for CI job summaries)."""
    lines = [
        "### Engine benchmark baseline",
        "",
        "| point | regime | topology | optimised (s) | golden (s) | speedup | stats |",
        "|---|---|---|---:|---:|---:|---|",
    ]
    for name, entry in sorted(data.items()):
        if name.startswith("_"):
            continue
        timings = entry.get("timings_seconds", {})
        lines.append(
            f"| {name} | {entry.get('regime', '?')} "
            f"| {entry.get('topology', '?')} "
            f"| {timings.get('optimized', float('nan')):.3f} "
            f"| {timings.get('golden', float('nan')):.3f} "
            f"| {entry.get('speedup', 0.0):.2f}x "
            f"| {'identical' if entry.get('stats_equal') else 'DIVERGED'} |"
        )
    section = data.get("_obs")
    if section and section.get("points"):
        ceiling = section.get("max_enabled_overhead", MAX_ENABLED_OVERHEAD)
        lines += [
            "",
            f"### Probe overhead (enabled ceiling {ceiling:.0%})",
            "",
            "| point | off (s) | on (s) | golden (s) | overhead | floor | stats |",
            "|---|---:|---:|---:|---:|---:|---|",
        ]
        for name, entry in sorted(section["points"].items()):
            timings = entry.get("timings_seconds", {})
            lines.append(
                f"| {name} "
                f"| {timings.get('off', float('nan')):.3f} "
                f"| {timings.get('on', float('nan')):.3f} "
                f"| {timings.get('golden', float('nan')):.3f} "
                f"| {entry.get('enabled_overhead', 0.0):.1%} "
                f"| {entry.get('speedup_off', 0.0):.2f}x "
                f"| {'identical' if entry.get('stats_equal') else 'DIVERGED'} |"
            )
    return "\n".join(lines)


# -- runtime pool benchmark -------------------------------------------

#: File name of the committed runtime baseline at the repository root.
RUNTIME_BENCH_FILENAME = "BENCH_runtime.json"

#: Speedup floors ``repro bench guard`` enforces on the runtime
#: baseline: the persistent pool must beat spawning a fresh pool per
#: batch, parallel execution must not lose to the serial reference,
#: and the in-process dispatch path (broker + lease bookkeeping, no
#: network) must stay within 30% of serial — the lease protocol is
#: allowed to cost coordination, not to dominate the run.
DEFAULT_RUNTIME_FLOORS = {
    "pool_vs_spawn": 1.0,
    "parallel_vs_serial": 1.0,
    "dispatch_vs_serial": 0.70,
}

#: On a single-core machine two workers cannot beat one process — the
#: parallel-vs-serial floor is clamped to this allowance (a bound on
#: pure orchestration overhead) when ``_meta.cpu_count`` is 1.
SINGLE_CORE_ALLOWANCE = 0.85


@dataclass(frozen=True)
class RuntimeBenchResult:
    """Serial vs persistent-pool vs fresh-pool-per-batch timings.

    ``pool`` runs every batch through one :class:`ParallelExecutor`
    whose workers persist across batches; ``spawn`` creates and closes
    a fresh executor per batch, paying the pool spawn that used to be
    per-batch overhead; ``dispatch`` routes every batch through an
    in-process :class:`~repro.dispatch.DispatchExecutor` (broker,
    leases, content-hash result ingestion — no network), pricing the
    coordination protocol itself.  ``results_equal`` asserts all
    variants produced identical result rows — a benchmark that changed
    answers would be worse than useless.
    """

    jobs: int
    batches: int
    specs_per_batch: int
    serial_seconds: float
    pool_seconds: float
    spawn_seconds: float
    results_equal: bool
    dispatch_seconds: float = 0.0

    @property
    def pool_vs_spawn(self) -> float:
        """Persistent-pool speedup over spawning a pool per batch."""
        if self.pool_seconds <= 0:
            return float("inf")
        return self.spawn_seconds / self.pool_seconds

    @property
    def parallel_vs_serial(self) -> float:
        """Persistent-pool speedup over the serial reference."""
        if self.pool_seconds <= 0:
            return float("inf")
        return self.serial_seconds / self.pool_seconds

    @property
    def dispatch_vs_serial(self) -> float:
        """In-process dispatch speedup over the serial reference.

        Both paths execute specs one at a time in a single process, so
        the ratio isolates lease-protocol overhead and is comparable
        across machines (a healthy value sits just under 1.0).
        """
        if self.dispatch_seconds <= 0:
            return float("inf")
        return self.serial_seconds / self.dispatch_seconds

    @property
    def dispatch_vs_pool(self) -> float:
        """In-process dispatch speedup over the persistent pool."""
        if self.dispatch_seconds <= 0:
            return float("inf")
        return self.pool_seconds / self.dispatch_seconds


def _runtime_batches(*, fast: bool, batches: int, specs_per_batch: int):
    """Deterministic multi-batch workload for the executor comparison."""
    from repro.runtime.spec import RunSpec

    cycles = 800 if fast else 2500
    batch_list = []
    for batch_index in range(batches):
        batch_list.append(
            [
                RunSpec(
                    topology="mesh_x1",
                    workload="uniform",
                    rate=0.03 + 0.01 * spec_index,
                    config=SimulationConfig(
                        frame_cycles=2000, seed=11 + batch_index
                    ),
                    cycles=cycles,
                    warmup=cycles // 4,
                )
                for spec_index in range(specs_per_batch)
            ]
        )
    return batch_list


def run_runtime_bench(
    *, fast: bool = False, jobs: int = 2, batches: int = 8,
    specs_per_batch: int = 2, repeats: int = 2,
) -> RuntimeBenchResult:
    """Time the four executor variants over the same batches (best-of)."""
    from repro.dispatch import DispatchExecutor
    from repro.runtime.executor import ParallelExecutor, SerialExecutor

    batch_list = _runtime_batches(
        fast=fast, batches=batches, specs_per_batch=specs_per_batch
    )

    def _serial():
        executor = SerialExecutor()
        return [executor.run(batch).results for batch in batch_list]

    def _pool():
        executor = ParallelExecutor(jobs=jobs)
        try:
            return [executor.run(batch).results for batch in batch_list]
        finally:
            executor.close()

    def _spawn():
        collected = []
        for batch in batch_list:
            executor = ParallelExecutor(jobs=jobs)
            try:
                collected.append(executor.run(batch).results)
            finally:
                executor.close()
        return collected

    def _dispatch():
        executor = DispatchExecutor(jobs=jobs)
        try:
            return [executor.run(batch).results for batch in batch_list]
        finally:
            executor.close()

    timings = {"serial": float("inf"), "pool": float("inf"),
               "spawn": float("inf"), "dispatch": float("inf")}
    snapshots: dict[str, list] = {}
    for _ in range(max(1, repeats)):
        for name, variant in (("serial", _serial), ("pool", _pool),
                              ("spawn", _spawn), ("dispatch", _dispatch)):
            started = time.perf_counter()
            results = variant()
            timings[name] = min(timings[name], time.perf_counter() - started)
            snapshots[name] = [
                result.to_json() for batch in results for result in batch
            ]
    return RuntimeBenchResult(
        jobs=jobs,
        batches=batches,
        specs_per_batch=specs_per_batch,
        serial_seconds=round(timings["serial"], 4),
        pool_seconds=round(timings["pool"], 4),
        spawn_seconds=round(timings["spawn"], 4),
        dispatch_seconds=round(timings["dispatch"], 4),
        results_equal=(
            snapshots["serial"] == snapshots["pool"]
            == snapshots["spawn"] == snapshots["dispatch"]
        ),
    )


def format_runtime_bench(result: RuntimeBenchResult) -> str:
    """Human-readable executor-comparison table for the CLI."""
    return "\n".join([
        "runtime executor benchmark "
        f"({result.batches} batches x {result.specs_per_batch} specs, "
        f"jobs={result.jobs})",
        f"  serial reference:        {result.serial_seconds:8.3f}s",
        f"  persistent pool:         {result.pool_seconds:8.3f}s "
        f"({result.parallel_vs_serial:.2f}x vs serial)",
        f"  fresh pool per batch:    {result.spawn_seconds:8.3f}s "
        f"(pool is {result.pool_vs_spawn:.2f}x faster)",
        f"  in-process dispatch:     {result.dispatch_seconds:8.3f}s "
        f"({result.dispatch_vs_serial:.2f}x vs serial)",
        "  results: " + ("identical across all variants"
                         if result.results_equal else "DIVERGED!"),
    ])


def record_runtime_bench(
    result: RuntimeBenchResult, path: str | os.PathLike
) -> None:
    """Merge the executor comparison into the runtime baseline file."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        data = {}
    floors = data.setdefault("_floors", {})
    for key, value in DEFAULT_RUNTIME_FLOORS.items():
        floors.setdefault(key, value)
    floors.setdefault("single_core_allowance", SINGLE_CORE_ALLOWANCE)
    data.setdefault("_meta", {})
    data["_meta"]["cpu_count"] = os.cpu_count()
    data["_meta"]["engine_version"] = __version__
    data["runtime_pool"] = {
        "jobs": result.jobs,
        "batches": result.batches,
        "specs_per_batch": result.specs_per_batch,
        "timings_seconds": {
            "serial": result.serial_seconds,
            "pool": result.pool_seconds,
            "spawn_per_batch": result.spawn_seconds,
            "dispatch": result.dispatch_seconds,
        },
        "pool_vs_spawn": round(result.pool_vs_spawn, 3),
        "parallel_vs_serial": round(result.parallel_vs_serial, 3),
        "dispatch_vs_serial": round(result.dispatch_vs_serial, 3),
        "dispatch_vs_pool": round(result.dispatch_vs_pool, 3),
        "results_equal": result.results_equal,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _runtime_floors(data: dict) -> tuple[float, float, float]:
    """(pool_vs_spawn, parallel_vs_serial, dispatch_vs_serial) floors.

    The parallel floor is clamped to the single-core allowance when the
    baseline was recorded on one CPU — there, two workers time-slicing
    one core cannot beat the serial reference, and the floor only
    bounds orchestration overhead.  The dispatch floor needs no clamp:
    the in-process dispatch path is single-process like the serial
    reference, so the ratio is machine-independent by construction.
    """
    floors = {**DEFAULT_RUNTIME_FLOORS, **(data.get("_floors") or {})}
    allowance = floors.get("single_core_allowance", SINGLE_CORE_ALLOWANCE)
    cpu_count = (data.get("_meta") or {}).get("cpu_count") or 1
    parallel_floor = floors["parallel_vs_serial"]
    if cpu_count <= 1:
        parallel_floor = min(parallel_floor, allowance)
    return (
        floors["pool_vs_spawn"],
        parallel_floor,
        floors["dispatch_vs_serial"],
    )


def validate_runtime_baseline(path: str | os.PathLike) -> tuple[list[str], dict]:
    """Regression-check the committed runtime baseline.

    The ``runtime_pool`` section must show bit-identical results, the
    persistent pool beating per-batch pool spawning, parallel
    execution holding its floor against serial (clamped on single-core
    recorders), and the in-process dispatch path staying above its
    coordination-overhead floor.  Legacy per-benchmark ``speedup``
    entries are held to the same parallel floor.  Returns
    (violations, parsed baseline).
    """
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    violations: list[str] = []
    pool_floor, parallel_floor, dispatch_floor = _runtime_floors(data)
    entry = data.get("runtime_pool")
    if not entry:
        violations.append(
            "no runtime_pool section — record one with "
            "`repro bench runtime --record BENCH_runtime.json`"
        )
    else:
        if not entry.get("results_equal", False):
            violations.append(
                "runtime_pool: results_equal is false — executor variants "
                "diverged"
            )
        pool_vs_spawn = entry.get("pool_vs_spawn", 0.0)
        if pool_vs_spawn < pool_floor:
            violations.append(
                f"runtime_pool: pool_vs_spawn {pool_vs_spawn} < "
                f"{pool_floor:g} — persistent pool lost to per-batch "
                "spawning"
            )
        parallel_vs_serial = entry.get("parallel_vs_serial", 0.0)
        if parallel_vs_serial < parallel_floor:
            violations.append(
                f"runtime_pool: parallel_vs_serial {parallel_vs_serial} < "
                f"{parallel_floor:g} — pooled execution regressed vs serial"
            )
        dispatch_vs_serial = entry.get("dispatch_vs_serial")
        if dispatch_vs_serial is not None and dispatch_vs_serial < dispatch_floor:
            violations.append(
                f"runtime_pool: dispatch_vs_serial {dispatch_vs_serial} < "
                f"{dispatch_floor:g} — lease-protocol overhead regressed"
            )
    for name, legacy in sorted(data.items()):
        if name.startswith("_") or name == "runtime_pool":
            continue
        speedup = legacy.get("speedup")
        if speedup is not None and speedup < parallel_floor:
            violations.append(
                f"{name}: parallel speedup {speedup} < {parallel_floor:g}"
            )
    violations.extend(_validate_journal_section(data))
    return violations, data


def format_runtime_markdown(data: dict) -> str:
    """Markdown summary of the runtime baseline (for CI job summaries)."""
    pool_floor, parallel_floor, dispatch_floor = _runtime_floors(data)
    meta = data.get("_meta") or {}
    lines = [
        "### Runtime executor baseline",
        "",
        f"Recorded on {meta.get('cpu_count', '?')} CPU(s); floors: "
        f"pool_vs_spawn ≥ {pool_floor:g}, parallel_vs_serial ≥ "
        f"{parallel_floor:g}, dispatch_vs_serial ≥ {dispatch_floor:g}",
        "",
        "| entry | serial (s) | pool (s) | spawn (s) | dispatch (s) "
        "| pool/spawn | par/serial | disp/serial |",
        "|---|---:|---:|---:|---:|---:|---:|---:|",
    ]
    entry = data.get("runtime_pool")
    if entry:
        timings = entry.get("timings_seconds", {})
        lines.append(
            f"| runtime_pool | {timings.get('serial', float('nan')):.3f} "
            f"| {timings.get('pool', float('nan')):.3f} "
            f"| {timings.get('spawn_per_batch', float('nan')):.3f} "
            f"| {timings.get('dispatch', float('nan')):.3f} "
            f"| {entry.get('pool_vs_spawn', 0.0):.2f}x "
            f"| {entry.get('parallel_vs_serial', 0.0):.2f}x "
            f"| {entry.get('dispatch_vs_serial', 0.0):.2f}x |"
        )
    for name, legacy in sorted(data.items()):
        if name.startswith("_") or name == "runtime_pool":
            continue
        timings = legacy.get("timings_seconds", {})
        serial = timings.get("serial")
        lines.append(
            f"| {name} | {serial if serial is not None else float('nan'):.3f} "
            f"| — | — | — | — | {legacy.get('speedup', 0.0):.2f}x | — |"
        )
    journal = data.get("_journal")
    if journal:
        timings = journal.get("timings_seconds", {})
        lines += [
            "",
            "### Dispatch journal overhead "
            f"(journal-off floor ≥ {journal.get('floor_speedup_off', JOURNAL_OFF_FLOOR):g})",
            "",
            "| off (s) | on (s) | overhead | floor | results |",
            "|---:|---:|---:|---:|---|",
            f"| {timings.get('off', float('nan')):.3f} "
            f"| {timings.get('on', float('nan')):.3f} "
            f"| {journal.get('journal_overhead', 0.0):+.1%} "
            f"| {journal.get('speedup_off', 0.0):.2f}x "
            f"| {'identical' if journal.get('results_equal') else 'DIVERGED'} |",
        ]
    return "\n".join(lines)


# -- dispatch journal overhead ----------------------------------------

#: Floor for the journal-*off* dispatch path.  With no
#: :class:`~repro.obs.fleet.JournalWriter` attached every hook site is
#: one ``is not None`` test, so running with journaling off must never
#: be slower than running with it on — a value under 1.0 means the
#: disabled path itself started costing time.
JOURNAL_OFF_FLOOR = 1.0


@dataclass(frozen=True)
class JournalOverheadResult:
    """Dispatch timings with event journaling off vs on (best of repeats).

    Both variants run the same batches through an in-process
    :class:`~repro.dispatch.DispatchExecutor`; ``on`` additionally
    writes broker/worker journals into a scratch directory.
    ``results_equal`` asserts the journaled run returned bit-identical
    result rows — journaling is observational and must never perturb
    results.
    """

    jobs: int
    batches: int
    specs_per_batch: int
    off_seconds: float
    on_seconds: float
    results_equal: bool

    @property
    def speedup_off(self) -> float:
        """Journal-on / journal-off: the disabled-journal floor."""
        if self.off_seconds <= 0:
            return float("inf")
        return self.on_seconds / self.off_seconds

    @property
    def journal_overhead(self) -> float:
        """Fractional slowdown of journal-on vs journal-off."""
        if self.off_seconds <= 0:
            return 0.0
        return self.on_seconds / self.off_seconds - 1.0


def run_journal_overhead(
    *, fast: bool = False, jobs: int = 2, batches: int = 4,
    specs_per_batch: int = 2, repeats: int = 2,
) -> JournalOverheadResult:
    """Time dispatch with journaling off vs on over identical batches."""
    import tempfile

    from repro.dispatch import DispatchExecutor

    batch_list = _runtime_batches(
        fast=fast, batches=batches, specs_per_batch=specs_per_batch
    )

    def _run(journal_dir: str | None):
        executor = DispatchExecutor(jobs=jobs, journal_dir=journal_dir)
        try:
            return [executor.run(batch).results for batch in batch_list]
        finally:
            executor.close()

    best_off = best_on = float("inf")
    snap_off = snap_on = None
    with tempfile.TemporaryDirectory(prefix="repro-journal-bench-") as scratch:
        for repeat in range(max(1, repeats)):
            started = time.perf_counter()
            results = _run(None)
            best_off = min(best_off, time.perf_counter() - started)
            snap_off = [
                result.to_json() for batch in results for result in batch
            ]
            # A fresh directory per repeat: JournalWriter resumes the
            # sequence on an existing file, which would grow the journal
            # (and its flush cost) across repeats.
            journal_dir = os.path.join(scratch, f"repeat{repeat}")
            started = time.perf_counter()
            results = _run(journal_dir)
            best_on = min(best_on, time.perf_counter() - started)
            snap_on = [
                result.to_json() for batch in results for result in batch
            ]
    return JournalOverheadResult(
        jobs=jobs,
        batches=batches,
        specs_per_batch=specs_per_batch,
        off_seconds=round(best_off, 4),
        on_seconds=round(best_on, 4),
        results_equal=snap_off == snap_on,
    )


def format_journal_overhead(result: JournalOverheadResult) -> str:
    """Human-readable journal-overhead table for the CLI."""
    return "\n".join([
        "dispatch journal overhead "
        f"({result.batches} batches x {result.specs_per_batch} specs, "
        f"jobs={result.jobs})",
        f"  journaling off:          {result.off_seconds:8.3f}s",
        f"  journaling on:           {result.on_seconds:8.3f}s "
        f"({result.journal_overhead:+.1%})",
        "  results: " + ("identical with and without journaling"
                         if result.results_equal else "DIVERGED!"),
    ])


def record_journal_overhead(
    result: JournalOverheadResult, path: str | os.PathLike,
    *, floor: float = JOURNAL_OFF_FLOOR,
) -> None:
    """Merge journal-overhead results into the ``_journal`` section."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        data = {}
    data["_journal"] = {
        "floor_speedup_off": floor,
        "jobs": result.jobs,
        "batches": result.batches,
        "specs_per_batch": result.specs_per_batch,
        "timings_seconds": {
            "off": result.off_seconds,
            "on": result.on_seconds,
        },
        "speedup_off": round(result.speedup_off, 3),
        "journal_overhead": round(result.journal_overhead, 4),
        "results_equal": result.results_equal,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _validate_journal_section(data: dict) -> list[str]:
    """Violations in a runtime baseline's ``_journal`` section."""
    section = data.get("_journal")
    if not section:
        return []
    violations: list[str] = []
    if not section.get("results_equal", False):
        violations.append(
            "journal: results_equal is false — journaling perturbed results"
        )
    floor = section.get("floor_speedup_off", JOURNAL_OFF_FLOOR)
    speedup = section.get("speedup_off", 0.0)
    if speedup < floor:
        violations.append(
            f"journal: journal-off speedup {speedup} < {floor:g} — the "
            "disabled hook path costs real time"
        )
    return violations


# -- bench trend history ----------------------------------------------

#: File name of the committed bench trend history at the repo root.
BENCH_HISTORY_FILENAME = "BENCH_history.jsonl"

#: Trailing-window defaults for ``repro bench history``: the newest
#: entry is compared against the mean of up to this many preceding
#: entries and flagged when a metric drops below the tolerance share.
HISTORY_WINDOW = 5
HISTORY_TOLERANCE = 0.90


def bench_history_entry(
    engine_path: str | os.PathLike,
    runtime_path: str | os.PathLike | None = None,
) -> dict:
    """One guard-checked trend record built from the committed baselines.

    Flattens every guarded speedup (engine points, ``_obs`` probe
    floors, runtime-pool ratios, the ``_journal`` floor) into a single
    ``speedups`` mapping so the trailing-window comparison is a plain
    per-key ratio check, and carries the guard's violations verbatim —
    a history entry recorded against a failing baseline says so.
    """
    violations, engine_data = validate_engine_baseline(engine_path)
    speedups: dict[str, float] = {}
    for name, entry in sorted(engine_data.items()):
        if name.startswith("_"):
            continue
        speedups[name] = entry.get("speedup", 0.0)
    for name, entry in sorted(
        (engine_data.get("_obs") or {}).get("points", {}).items()
    ):
        speedups[f"obs:{name}"] = entry.get("speedup_off", 0.0)
    if runtime_path is not None:
        runtime_violations, runtime_data = validate_runtime_baseline(
            runtime_path
        )
        violations.extend(runtime_violations)
        pool = runtime_data.get("runtime_pool") or {}
        for key in ("pool_vs_spawn", "parallel_vs_serial",
                    "dispatch_vs_serial"):
            if key in pool:
                speedups[f"runtime:{key}"] = pool[key]
        journal = runtime_data.get("_journal") or {}
        if "speedup_off" in journal:
            speedups["journal:speedup_off"] = journal["speedup_off"]
    return {
        "engine_version": __version__,
        "recorded_utc": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "speedups": speedups,
        "violations": violations,
    }


def load_bench_history(path: str | os.PathLike) -> list[dict]:
    """Parse a history file; a missing file is an empty history."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError:
        return []
    entries: list[dict] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"line {number}: not valid JSON ({error})")
        if not isinstance(entry, dict) or "speedups" not in entry:
            raise ValueError(
                f"line {number}: history entries are objects with a "
                "'speedups' mapping"
            )
        entries.append(entry)
    return entries


def append_bench_history(path: str | os.PathLike, entry: dict) -> None:
    """Append one history entry as a JSON line."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
        handle.flush()


def flag_history_regressions(
    entries: list[dict], *, window: int = HISTORY_WINDOW,
    tolerance: float = HISTORY_TOLERANCE,
) -> list[str]:
    """Metrics in the newest entry that fell below the trailing mean.

    Each speedup in the last entry is compared against the mean of the
    same metric over up to ``window`` preceding entries; a metric is
    flagged when it drops below ``tolerance`` times that mean.  Fewer
    than one prior sample means no verdict for that metric.
    """
    if len(entries) < 2:
        return []
    latest = entries[-1]
    flags: list[str] = []
    for metric, value in sorted(latest.get("speedups", {}).items()):
        trailing = [
            entry["speedups"][metric]
            for entry in entries[-(window + 1):-1]
            if metric in entry.get("speedups", {})
        ]
        if not trailing:
            continue
        mean = sum(trailing) / len(trailing)
        if mean > 0 and value < tolerance * mean:
            flags.append(
                f"{metric}: {value:.3f} is {value / mean:.0%} of the "
                f"trailing {len(trailing)}-entry mean {mean:.3f} "
                f"(tolerance {tolerance:.0%})"
            )
    return flags


def format_bench_history(entries: list[dict], flags: list[str]) -> str:
    """Human-readable trend table (newest last) plus any flags."""
    lines = [
        f"bench history ({len(entries)} entr"
        f"{'y' if len(entries) == 1 else 'ies'}, newest last)",
        f"{'recorded (UTC)':22s} {'engine':8s} {'metrics':>7s} "
        f"{'min speedup':>12s} violations",
    ]
    for entry in entries[-10:]:
        speedups = entry.get("speedups", {})
        worst = min(speedups.values()) if speedups else float("nan")
        lines.append(
            f"{entry.get('recorded_utc', '?'):22s} "
            f"{entry.get('engine_version', '?'):8s} "
            f"{len(speedups):7d} {worst:12.3f} "
            f"{len(entry.get('violations', []))}"
        )
    if flags:
        lines.append("")
        lines.append("trend regressions vs the trailing window:")
        lines.extend(f"  {flag}" for flag in flags)
    else:
        lines.append("no trend regressions vs the trailing window")
    return "\n".join(lines)


def record_engine_baseline(
    results: list[EngineResult], path: str | os.PathLike
) -> None:
    """Merge results into the JSON baseline (keyed by point name)."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        data = {}
    data.setdefault("_meta", {})
    data["_meta"]["cpu_count"] = os.cpu_count()
    data["_meta"]["engine_version"] = __version__
    for result in results:
        data[result.point.name] = {
            "regime": result.point.regime,
            "topology": result.point.topology,
            "workload": result.point.workload,
            "policy": result.point.policy,
            "rate": result.point.rate,
            "offered_load_flits_per_cycle": round(
                offered_load(result.point.flows()), 4
            ),
            "cycles": result.point.cycles,
            "warmup": result.point.warmup,
            "timings_seconds": {
                "optimized": result.optimized_seconds,
                "golden": result.golden_seconds,
            },
            "speedup": round(result.speedup, 3),
            "stats_equal": result.stats_equal,
        }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
