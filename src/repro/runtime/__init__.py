"""repro.runtime — parallel experiment orchestration with caching.

The layering mirrors the rest of the package: *what to run* is a
declarative, content-hashable :class:`RunSpec`; *how it executes* is an
:class:`Executor` (serial or process-parallel) consulting an optional
content-addressed :class:`ResultCache`; :func:`run_batch` /
:func:`run_grid` sit on top and hand back a :class:`RunManifest`
recording how much work was simulated versus served from cache.

Typical use::

    from repro.runtime import ParallelExecutor, ResultCache, run_grid

    grid = run_grid(
        ["mesh_x1", "mecs", "dps"], [0.02, 0.06, 0.10],
        workload="full_column", cycles=4000, warmup=1000,
        executor=ParallelExecutor(jobs=4), cache=ResultCache(),
    )
    print(grid.curves["dps"][0].mean_latency)
    print(grid.manifest.summary())   # "... 0 simulated, 21 cached ..."
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "EnginePoint": ".bench",
    "EngineResult": ".bench",
    "format_engine_bench": ".bench",
    "record_engine_baseline": ".bench",
    "run_engine_bench": ".bench",
    "CacheInfo": ".cache",
    "ResultCache": ".cache",
    "default_cache_dir": ".cache",
    "ExecutionOutcome": ".executor",
    "Executor": ".executor",
    "ParallelExecutor": ".executor",
    "SerialExecutor": ".executor",
    "BatchResult": ".runner",
    "GridResult": ".runner",
    "RunManifest": ".runner",
    "run_batch": ".runner",
    "run_grid": ".runner",
    "PATTERNS": ".spec",
    "POLICIES": ".spec",
    "WORKLOAD_BUILDERS": ".spec",
    "RunResult": ".spec",
    "RunSpec": ".spec",
    "build_flows": ".spec",
    "execute_spec": ".spec",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "BatchResult",
    "CacheInfo",
    "EnginePoint",
    "EngineResult",
    "ExecutionOutcome",
    "Executor",
    "GridResult",
    "PATTERNS",
    "POLICIES",
    "ParallelExecutor",
    "ResultCache",
    "RunManifest",
    "RunResult",
    "RunSpec",
    "SerialExecutor",
    "WORKLOAD_BUILDERS",
    "build_flows",
    "default_cache_dir",
    "execute_spec",
    "format_engine_bench",
    "record_engine_baseline",
    "run_batch",
    "run_engine_bench",
    "run_grid",
]
