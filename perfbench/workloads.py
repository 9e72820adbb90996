"""The two workloads: their inputs, one timed pass each, and the oracle.

Every input is a pure function of the seed.  The engine workload runs
its specs back to back through ``execute_spec`` (a closed loop of one
spec at a time, no cache); the campaign workload runs the built-in
``smoke`` campaign with the seed folded into ``CampaignSpec.seed``.

Correctness is checked after the timed passes, never inside them:

* seed 1 (``DEFAULT_SEED``) compares against the committed
  ``expected/seed1.json``; the campaign report card must also pass
  against ``CAMPAIGN_baseline.json``;
* any other seed derives engine expectations once from the frozen
  ``network/golden.py`` and campaign rows once from a serial, uncached
  run, and stores them under ``.perfbench/expected`` in the checkout.

Every mismatch counts as a failed operation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import shutil
import time
from pathlib import Path

from perfbench.metrics import CAMPAIGN_WORKLOADS, ENGINE_WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space inside the checkout (git-ignored).
STATE_DIR = ROOT / ".perfbench"
EXPECTED_FILE = BENCH_DIR / "expected" / "seed1.json"
BASELINE_FILE = ROOT / "CAMPAIGN_baseline.json"
DEFAULT_SEED = 1

WHY = {
    "pvc_adversarial": (
        "PVC on Figure 5 Workloads 1 and 2: quota runs out early, so ranked "
        "arbitration and the preemption, NACK and replay path block; runtime "
        "and campaign idle"
    ),
    "campaign_cold": (
        "smoke campaign, fresh cache, 2-worker pool: the only load on the "
        "resilience pool, pool IPC, the result cache, stage hashing and "
        "manifest, artifact and report-card writes"
    ),
}

_PVC_TOPOLOGIES = ("mesh_x1", "mecs", "dps")


def pool_jobs() -> int:
    return min(2, os.cpu_count() or 1)


def engine_specs(workload: str, seed: int) -> list:
    """The spec list of an engine workload (a pure function of ``seed``)."""
    from repro.network.config import SimulationConfig
    from repro.runtime.spec import RunSpec

    if workload == "pvc_adversarial":
        config = SimulationConfig(frame_cycles=10_000, seed=seed)
        return [
            RunSpec(
                topology=topology,
                workload=traffic,
                policy="pvc",
                config=config,
                cycles=25_000,
            )
            for traffic in ("workload1", "workload2")
            for topology in _PVC_TOPOLOGIES
        ]
    raise ValueError(f"{workload!r} is not an engine workload")


def smoke_campaign(seed: int):
    from repro.campaign.builtin import get_campaign

    return dataclasses.replace(get_campaign("smoke"), seed=seed)


def spec_cycles(spec, result) -> int:
    """Cycles the simulator advanced for ``spec``."""
    if spec.mode == "drain":
        return result.completion_cycle
    return spec.warmup + spec.cycles


# -- set-up -----------------------------------------------------------


@dataclasses.dataclass
class Prepared:
    """Everything a workload needs before its first spec is submitted."""

    workload: str
    seed: int
    workdir: Path
    specs: list = dataclasses.field(default_factory=list)
    campaign: object = None
    executor: object = None
    cache: object = None
    passes: int = 0


def prepare(workload: str, seed: int, workdir: Path) -> Prepared:
    """Import the stack and build the inputs, executor and cache.

    This is exactly what ``setup_s`` times (in fresh processes).
    """
    import repro  # noqa: F401  (importing the package is part of set-up)

    prepared = Prepared(workload, seed, workdir)
    if workload in ENGINE_WORKLOADS:
        prepared.specs = engine_specs(workload, seed)
        return prepared
    if workload not in CAMPAIGN_WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    from repro.runtime.cache import ResultCache
    from repro.runtime.executor import ParallelExecutor

    prepared.campaign = smoke_campaign(seed)
    prepared.executor = ParallelExecutor(jobs=pool_jobs())
    prepared.cache = ResultCache(workdir / "cache")
    return prepared


# -- one timed pass ---------------------------------------------------


@dataclasses.dataclass
class PassResult:
    wall_s: float
    #: Engine: one RunResult (or the exception) per spec.  Campaign:
    #: ``{stage: rows or None}`` plus the run's report card.
    outputs: object
    report: object = None
    manifest: dict | None = None
    campaign_dir: Path | None = None
    #: The pass's wall time split into parts (one per spec, or per
    #: campaign stage, plus ``"rest"``) that sum to ``wall_s``.
    parts: dict = dataclasses.field(default_factory=dict)


def with_rest(parts: dict, wall: float) -> dict:
    return {**parts, "rest": wall - sum(parts.values())}


def run_engine_pass(prepared: Prepared) -> PassResult:
    from repro.runtime import spec as spec_module

    outputs, parts = [], {}
    started = time.perf_counter()
    for index, spec in enumerate(prepared.specs):
        spec_started = time.perf_counter()
        try:
            outputs.append(spec_module.execute_spec(spec))
        except Exception as error:  # counted as a failed operation
            outputs.append(error)
        parts[index] = time.perf_counter() - spec_started
    wall = time.perf_counter() - started
    return PassResult(wall, outputs, parts=with_rest(parts, wall))


def stage_rows(campaign_dir: Path, manifest: dict) -> dict:
    """``{stage: rows}`` read back from a finished campaign directory."""
    rows = {}
    for name, entry in manifest["stages"].items():
        path = campaign_dir / "artifacts" / f"{name}.json"
        if entry.get("status") != "complete" or not path.is_file():
            rows[name] = None
            continue
        with open(path, encoding="utf-8") as handle:
            rows[name] = json.load(handle)["rows"]
    return rows


def run_campaign_pass(prepared: Prepared) -> PassResult:
    """One campaign run into a fresh directory, timed from submit to close.

    Every pass gets a new empty cache.  Closing the executor stops its
    pool, so every pass spawns its workers anew.
    """
    from repro.campaign import runner
    from repro.runtime.cache import ResultCache

    prepared.passes += 1
    campaign_dir = prepared.workdir / f"campaign-{prepared.passes}"
    if prepared.passes > 1:
        shutil.rmtree(prepared.workdir / "cache", ignore_errors=True)
        prepared.cache = ResultCache(prepared.workdir / "cache")
    started = time.perf_counter()
    try:
        result = runner.run_campaign(
            prepared.campaign,
            campaign_dir=campaign_dir,
            executor=prepared.executor,
            cache=prepared.cache,
            baseline_path=BASELINE_FILE,
        )
    finally:
        prepared.executor.close()
    wall = time.perf_counter() - started
    stages = result.manifest["telemetry"]["stages"]
    return PassResult(
        wall,
        stage_rows(campaign_dir, result.manifest),
        report=result.report,
        manifest=result.manifest,
        campaign_dir=campaign_dir,
        parts=with_rest(
            {name: entry["elapsed_seconds"] for name, entry in stages.items()}, wall
        ),
    )


def run_pass(prepared: Prepared) -> PassResult:
    if prepared.workload in ENGINE_WORKLOADS:
        return run_engine_pass(prepared)
    return run_campaign_pass(prepared)


def discard_pass(outcome: PassResult) -> None:
    """Delete a campaign pass's directory once it has been checked."""
    if outcome.campaign_dir is not None:
        shutil.rmtree(outcome.campaign_dir, ignore_errors=True)


def pass_sim_cycles(prepared: Prepared, outcome: PassResult) -> int:
    """Simulated cycles of every spec the pass submitted to the runtime.

    Campaign passes read the submitted spec hashes from the manifest
    and each spec's budget from its cache blob.  Stages that simulate
    outside the runtime are not visible here and are not counted.
    """
    if prepared.workload in ENGINE_WORKLOADS:
        return sum(
            spec_cycles(spec, result)
            for spec, result in zip(prepared.specs, outcome.outputs)
            if not isinstance(result, Exception)
        )
    from repro.runtime.spec import RunResult, RunSpec

    total = 0
    for entry in outcome.manifest["stages"].values():
        for shard in entry.get("shards") or []:
            for spec_hash in (shard or {}).get("spec_hashes", []):
                with open(prepared.cache.path_for(spec_hash), encoding="utf-8") as f:
                    blob = json.load(f)
                total += spec_cycles(
                    RunSpec.from_json(blob["spec"]),
                    RunResult.from_json(blob["result"]),
                )
    return total


# -- the oracle -------------------------------------------------------


def simulated_fields(result) -> dict:
    """A RunResult's simulated fields (the spec hash is identity, not output)."""
    data = result.to_json()
    data.pop("spec_hash")
    return data


def golden_result(spec) -> dict:
    """``simulated_fields`` of ``spec`` run on the frozen golden engine."""
    from repro.network.golden import GoldenColumnSimulator
    from repro.runtime.spec import POLICIES, build_flows
    from repro.topologies.registry import get_topology

    if spec.mode != "run" or spec.obs:
        raise ValueError(f"golden derivation covers run-mode specs only: {spec}")
    config = spec.config
    simulator = GoldenColumnSimulator(
        get_topology(spec.topology, **dict(spec.topology_params)).build(config),
        build_flows(spec),
        POLICIES[spec.policy](),
        config,
    )
    stats = simulator.run(spec.cycles, warmup=spec.warmup)
    return {
        "mode": spec.mode,
        "mean_latency": stats.mean_latency,
        "delivered_flits": stats.delivered_flits,
        "delivered_packets": stats.delivered_packets,
        "created_packets": stats.created_packets,
        "accepted_ratio": stats.offered_accepted_ratio,
        "preemption_events": stats.preemption_events,
        "preempted_packet_fraction": stats.preempted_packet_fraction,
        "wasted_hop_fraction": stats.wasted_hop_fraction,
        "replays": stats.replays,
        "completion_cycle": 0,
        "window_flits_per_flow": list(stats.window_flits_per_flow),
    }


def serial_reference_rows(campaign, workdir: Path) -> dict:
    """Stage rows of ``campaign`` run serially, in-process, with no cache."""
    from repro.campaign.runner import run_campaign
    from repro.runtime.executor import SerialExecutor

    campaign_dir = workdir / "reference"
    try:
        result = run_campaign(
            campaign, campaign_dir=campaign_dir, executor=SerialExecutor()
        )
        return stage_rows(campaign_dir, result.manifest)
    finally:
        shutil.rmtree(campaign_dir, ignore_errors=True)


def code_digest() -> str:
    """Digest of the simulator and benchmark sources (expectation key)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src" / "repro", BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def load_committed(workload: str):
    key = "smoke_campaign" if workload in CAMPAIGN_WORKLOADS else workload
    with open(EXPECTED_FILE, encoding="utf-8") as handle:
        return json.load(handle)[key]


def derive_expected(workload: str, seed: int, workdir: Path):
    """Expected outputs for a non-default seed, derived independently.

    Runs after the timed passes, so the golden specs may use every
    core the campaign pool would.  The pool forks, like the runtime's
    own worker pool: the process runs no threads, and a spawn context
    would leave its resource-tracker process running past our exit.
    """
    if workload in ENGINE_WORKLOADS:
        specs = engine_specs(workload, seed)
        with multiprocessing.get_context("fork").Pool(pool_jobs()) as pool:
            expected = pool.map(golden_result, specs, chunksize=1)
            pool.close()
            pool.join()
        return expected
    return serial_reference_rows(smoke_campaign(seed), workdir)


def expected_outputs(workload: str, seed: int, workdir: Path):
    """Committed expectations for seed 1; otherwise derived once and stored."""
    if seed == DEFAULT_SEED:
        return load_committed(workload)
    path = STATE_DIR / "expected" / f"{workload}-seed{seed}-{code_digest()}.json"
    if path.is_file():
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    data = derive_expected(workload, seed, workdir)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(data), encoding="utf-8")
    os.replace(tmp, path)
    return data


def engine_failures(outputs: list, expected: list) -> list[str]:
    """One message per spec whose result is missing or differs."""
    if len(outputs) != len(expected):
        return [f"{len(outputs)} results for {len(expected)} expected"]
    failures = []
    for index, (result, want) in enumerate(zip(outputs, expected)):
        if isinstance(result, Exception):
            failures.append(f"spec {index}: {type(result).__name__}: {result}")
        elif simulated_fields(result) != want:
            failures.append(f"spec {index}: result differs from the expectation")
    return failures


def campaign_failures(
    outcome: PassResult, expected: dict, seed: int
) -> list[str]:
    """One message per stage with wrong rows or a failing report verdict.

    At the default seed every stage must ``pass`` against the committed
    baseline; at other seeds the baseline's stage hashes do not apply,
    so only verdicts that mean "no rows" or "wrong rows" count.
    """
    bad = {"fail", "failed", "blocked", "pending"}
    verdicts = {stage.name: stage.verdict for stage in outcome.report.stages}
    failures = []
    for name, rows in outcome.outputs.items():
        verdict = verdicts.get(name)
        if rows is None:
            failures.append(f"stage {name}: no rows")
        elif rows != expected.get(name):
            failures.append(f"stage {name}: rows differ from the expectation")
        elif verdict in bad or (seed == DEFAULT_SEED and verdict != "pass"):
            failures.append(f"stage {name}: report card verdict {verdict}")
    return failures


def operations(prepared: Prepared) -> int:
    """Operations per pass: specs, or campaign stages."""
    if prepared.workload in ENGINE_WORKLOADS:
        return len(prepared.specs)
    return len(prepared.campaign.stages)


def failures(prepared: Prepared, outcome: PassResult, expected) -> list[str]:
    if prepared.workload in ENGINE_WORKLOADS:
        return engine_failures(outcome.outputs, expected)
    return campaign_failures(outcome, expected, prepared.seed)
