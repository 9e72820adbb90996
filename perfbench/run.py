"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pvc_adversarial --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:
``setup_s`` (median over fresh set-up processes), ``wall_s`` (see
:func:`typical_wall`), ``peak_rss_mb`` and ``sim_cycles_per_s``.  ``--trace 1`` runs
untraced passes, then traced ones, and reports the per-layer metrics.
``--workload all`` runs every workload in its own process and prints
each metric by name with its unit.  The last line of standard output
is always one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads as wl  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    END_TO_END,
    ENGINE_WORKLOADS,
    PER_LAYER,
    POLICY_SPLITS,
    WORKLOADS,
)

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}


def calibration_kernel() -> int:
    """Fixed pure-Python work: integer arithmetic, dict updates, a sort."""
    state, table = 12345, {}
    for index in range(300_000):
        state = (state * 1103515245 + 12345 + index) & 0x7FFFFFFF
        table[state & 4095] = table.get(state & 4095, 0) + 1
    ranked = sorted(table.items(), key=lambda item: (-item[1], item[0]))
    return state ^ ranked[0][0]


def calibrate() -> float:
    """Median seconds of three calibration kernels (not used to rescale)."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median seconds from process start to "ready to submit"."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(probe), workload, str(seed), str(workdir)],
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.wait(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        times.append(elapsed)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Largest resident set of this process and any reaped child (MB)."""
    kilobytes = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kilobytes / 1024.0


def typical_wall(outcomes) -> float:
    """Wall time of a typical pass of the run.

    The sum, over the parts of a pass (each spec, or each campaign
    stage plus the campaign's own bookkeeping), of the median time that
    part took over the passes of the run.  A shared host's speed drifts
    by tens of percent over seconds; the median of each part over the
    whole run follows that drift far less than any single pass, and
    less than the fastest pass, which depends on whether the host had a
    quiet moment during the run.
    """
    return sum(
        statistics.median(o.parts[key] for o in outcomes)
        for key in outcomes[0].parts
    )


#: Passes every run makes, however long they take, so that each part
#: of a pass has at least this many timings to take the median of.
MIN_PASSES = 3


def timed_passes(run_pass, seconds: float, on_pass) -> list:
    """Whole passes until the next one would end after ``seconds``."""
    outcomes = []
    deadline = time.perf_counter() + seconds
    while True:
        outcome = run_pass()
        on_pass(outcome)
        outcomes.append(outcome)
        typical = statistics.median(o.wall_s for o in outcomes)
        if len(outcomes) >= MIN_PASSES and time.perf_counter() + typical > deadline:
            return outcomes


class Checker:
    """Counts operations and failures across every pass of a run."""

    def __init__(self, prepared) -> None:
        self.prepared = prepared
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, outcome, expected) -> None:
        self.attempted += wl.operations(self.prepared)
        self.record(wl.failures(self.prepared, outcome, expected))

    def record(self, messages: list[str]) -> None:
        self.failed += len(messages)
        self.messages.extend(messages)


def keep_for_check(prepared, cycles: list):
    """Per-pass bookkeeping outside the timed region."""

    def on_pass(outcome) -> None:
        cycles.append(wl.pass_sim_cycles(prepared, outcome))
        wl.discard_pass(outcome)

    return on_pass


def untraced_run(workload: str, seed: int, seconds: float, workdir: Path):
    calibration = calibrate()
    setup = measure_setup(workload, seed, workdir)
    prepared = wl.prepare(workload, seed, workdir)
    cycles: list[int] = []
    record = keep_for_check(prepared, cycles)
    rss: list[float] = []

    def on_pass(outcome) -> None:
        record(outcome)
        # Later passes fork pool workers from a larger parent, so the
        # peak is taken over set-up and the first pass only: it must
        # not grow with the number of passes that fit in the run.
        rss.append(peak_rss_mb())

    outcomes = timed_passes(lambda: wl.run_pass(prepared), seconds, on_pass)
    checker = Checker(prepared)
    expected = wl.expected_outputs(workload, seed, workdir)
    for outcome in outcomes:
        checker.check(outcome, expected)
    wall = typical_wall(outcomes)
    metrics = {
        "setup_s": setup,
        "wall_s": wall,
        "peak_rss_mb": rss[0],
        "sim_cycles_per_s": statistics.median(cycles) / wall,
    }
    info = {"host.calibration_s": calibration, "passes": len(outcomes)}
    return checker, metrics, info


# -- traced run ---------------------------------------------------------


def _total(spans, name, where=None) -> float:
    return sum(
        span["end"] - span["start"]
        for span in spans
        if span["name"] == name and (where is None or where(span))
    )


def _count(spans, name) -> int:
    return sum(1 for span in spans if span["name"] == name)


def _unrouted_stages(spans) -> set[str]:
    """Stages whose span encloses a simulator run in this process."""
    by_id = {span["id"]: span for span in spans}
    found = set()
    for span in spans:
        if span["name"] != "network.run":
            continue
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == "campaign.stage":
                found.add(parent["attrs"]["stage"])
                break
            parent = by_id.get(parent["parent"])
    return found


def layer_metrics(tracer, outcome, model: Counter) -> dict:
    """Per-layer metrics of one traced pass (execute_spec samples aside)."""
    from perfbench.tracing import self_times

    spans, c = tracer.spans, tracer.counters
    run_s = _total(spans, "network.run")
    m = {"network.run_s": run_s}
    for policy in POLICY_SPLITS:
        m[f"network.run_s.{policy}"] = _total(
            spans, "network.run", lambda s, p=policy: s["attrs"]["policy"] == p
        )
    for load in ("low_rate", "saturated"):
        m[f"network.run_s.{load}"] = _total(
            spans, "network.run", lambda s, x=load: s["attrs"]["load"] == x
        )
    hops = c["network.hops"]
    m.update(
        {
            "network.runs": _count(spans, "network.run"),
            "network.construct_s": _total(spans, "network.construct"),
            "network.constructs": _count(spans, "network.construct"),
            "network.sim_cycles": c["network.sim_cycles"],
            "network.skipped_cycles": c["network.skipped_cycles"],
            "network.cycles_per_s": c["network.sim_cycles"] / run_s if run_s else 0.0,
            "network.hops": hops,
            "network.ns_per_hop": run_s * 1e9 / hops if hops else 0.0,
            "network.arb_blocks": c["network.arb_blocks"],
            "network.injector_arms": c["network.injector_arms"],
            "network.injector_sleeps": c["network.injector_sleeps"],
            "network.preemptions": c["network.preemptions"],
            "network.nacks": c["network.nacks"],
            "network.wasted_hop_fraction": (
                model["wasted_tiles"] / model["total_tiles"]
                if model["total_tiles"]
                else 0.0
            ),
            "network.delivered_flits": model["delivered_flits"],
            "network.accepted_ratio": (
                model["delivered_flits"] / model["created_flits"]
                if model["created_flits"]
                else 0.0
            ),
        }
    )
    for key in (
        "qos.priority_calls",
        "qos.compliance_calls",
        "qos.forward_calls",
        "qos.refund_calls",
        "qos.frame_calls",
        "qos.release_calls",
        "traffic.flows",
        "runtime.cache_hits",
        "runtime.cache_misses",
        "runtime.cache_puts",
        "runtime.cache_bytes_written",
    ):
        m[key] = c[key]
    main_pid = os.getpid()
    executor_s = _total(
        spans, "runtime.executor_run", lambda s: s["pid"] == main_pid
    )
    m.update(
        {
            "topologies.build_s": _total(spans, "topologies.build"),
            "topologies.builds": _count(spans, "topologies.build"),
            "traffic.build_flows_s": _total(spans, "traffic.build_flows"),
            "traffic.build_flows_calls": _count(spans, "traffic.build_flows"),
            "runtime.encode_s": self_times(spans).get("runtime.execute_spec", 0.0),
            "runtime.cache_get_s": _total(spans, "runtime.cache_get"),
            "runtime.cache_put_s": _total(spans, "runtime.cache_put"),
            "runtime.executor_run_s": executor_s,
            "runtime.executor_batches": _count(spans, "runtime.executor_run"),
        }
    )
    telemetry = (outcome.manifest or {}).get("telemetry")
    stages = telemetry["stages"] if telemetry else {}
    resilience = telemetry["resilience"] if telemetry else {}
    for key in ("retries", "timeouts", "worker_deaths"):
        m[f"resilience.{key}"] = resilience.get(key, 0)
    m["campaign.overhead_s"] = (
        telemetry["wall_seconds"] - executor_s if telemetry else 0.0
    )
    for name in (metric.name for metric in PER_LAYER):
        if name.startswith("campaign.stage_s."):
            stage = stages.get(name.removeprefix("campaign.stage_s."), {})
            m[name] = stage.get("elapsed_seconds", 0.0)
    unrouted = _unrouted_stages(spans)
    m["campaign.unrouted_stage_s"] = sum(
        entry["elapsed_seconds"]
        for name, entry in stages.items()
        if entry["specs"] == 0 and name in unrouted
    )
    return m


def spec_time_metrics(samples: list[float]) -> dict:
    """Median and the highest percentile with ten samples beyond it.

    Below 20 samples no percentile above the median has ten samples
    beyond it, and the tail falls back to the median.
    """
    ordered = sorted(samples)
    n = len(ordered)
    pct = max(50.0, 100.0 * (n - 10) / n) if n else 0.0
    tail = ordered[max(n - 11, (n - 1) // 2)] if n else 0.0
    return {
        "runtime.execute_spec_s.p50": statistics.median(ordered) if ordered else 0.0,
        "runtime.execute_spec_s.tail": tail,
        "runtime.execute_spec_s.tail_pct": pct,
        "runtime.execute_spec_s.count": n,
    }


def outputs_equal(prepared, left, right) -> list[str]:
    """Traced against untraced outputs, one message per differing operation."""
    if prepared.workload in ENGINE_WORKLOADS:
        return [
            f"spec {i}: traced result differs from untraced"
            for i, (a, b) in enumerate(zip(left.outputs, right.outputs))
            if a != b
        ]
    return [
        f"stage {name}: traced rows differ from untraced"
        for name in left.outputs
        if left.outputs[name] != right.outputs.get(name)
    ]


def traced_run(workload: str, seed: int, seconds: float, workdir: Path):
    from perfbench.tracing import (
        Instrumentation,
        Tracer,
        check_tree,
        write_chrome_trace,
    )

    calibration = calibrate()
    prepared = wl.prepare(workload, seed, workdir)
    cycles: list[int] = []
    on_pass = keep_for_check(prepared, cycles)
    plain = timed_passes(lambda: wl.run_pass(prepared), seconds / 2, on_pass)
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    per_pass, samples, all_spans = [], [], []
    counters = Counter()

    def traced_pass():
        tracer.reset()
        tracer.dump_dir = workdir / f"trace-{len(per_pass)}"
        tracer.dump_dir.mkdir(parents=True)
        with tracer.span("bench.pass", workload=workload):
            return wl.run_pass(prepared)

    def collect(outcome) -> None:
        model = tracer.model_totals() + tracer.merge_dumps(tracer.dump_dir)
        per_pass.append(layer_metrics(tracer, outcome, model))
        samples.extend(
            span["end"] - span["start"]
            for span in tracer.spans
            if span["name"] == "runtime.execute_spec"
        )
        all_spans.extend(tracer.spans)
        counters.update(tracer.counters)
        on_pass(outcome)

    instrumentation.install()
    try:
        traced = timed_passes(traced_pass, seconds / 2, collect)
    finally:
        instrumentation.remove()
    checker = Checker(prepared)
    expected = wl.expected_outputs(workload, seed, workdir)
    for outcome in plain + traced:
        checker.check(outcome, expected)
    for outcome in traced:
        checker.record(outputs_equal(prepared, outcome, plain[0]))
    problems = check_tree(all_spans)
    if problems:
        raise RuntimeError(f"malformed span tree: {problems[:3]}")
    metrics = {
        name: statistics.median_low(m[name] for m in per_pass)
        for name in per_pass[0]
    }
    metrics.update(spec_time_metrics(samples))
    metrics["host.calibration_s"] = calibration
    metrics["bench.tracing_overhead"] = typical_wall(traced) / typical_wall(plain) - 1.0
    metrics["bench.error_rate"] = checker.failed / checker.attempted
    trace_path = wl.STATE_DIR / "traces" / f"{workload}-seed{seed}.json"
    write_chrome_trace(trace_path, all_spans, dict(counters))
    info = {"trace_file": str(trace_path), "passes": f"{len(plain)}+{len(traced)}"}
    return checker, metrics, info


# -- entry points -------------------------------------------------------


def result_line(checker, metrics: dict) -> dict:
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    }


def run_one(args) -> int:
    workdir = wl.STATE_DIR / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = traced_run if args.trace else untraced_run
        checker, metrics, info = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in checker.messages[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    for key, value in info.items():
        print(f"# {args.workload} {key}: {value}")
    for name, value in metrics.items():
        print(f"{args.workload:18} {name:36} {value:>16.6g} {UNITS[name]}")
    print(json.dumps(result_line(checker, metrics)))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            *("--workload", workload, "--seed", str(args.seed)),
            *("--seconds", str(args.seconds), "--trace", str(args.trace)),
        ]
        completed = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, check=True
        )
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, entry in result["metrics"].items():
            metrics[f"{workload}.{name}"] = entry
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the repro package from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
