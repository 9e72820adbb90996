"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests)."""

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from perfbench import metrics, run, workloads as wl
from perfbench.tracing import Instrumentation, Tracer, check_tree, self_times

RUN_PY = wl.BENCH_DIR / "run.py"


@pytest.mark.parametrize("workload", metrics.ENGINE_WORKLOADS)
def test_spec_lists_are_a_pure_function_of_the_seed(workload):
    first = wl.engine_specs(workload, 7)
    again = wl.engine_specs(workload, 7)
    other = wl.engine_specs(workload, 8)
    assert [s.content_hash for s in first] == [s.content_hash for s in again]
    assert all(s.config.seed == 7 for s in first)
    assert {s.content_hash for s in first}.isdisjoint(s.content_hash for s in other)


def test_campaign_input_is_a_pure_function_of_the_seed():
    assert wl.smoke_campaign(7) == wl.smoke_campaign(7)
    assert wl.smoke_campaign(7).seed == 7
    assert wl.smoke_campaign(7) != wl.smoke_campaign(8)
    stages = tuple(stage.name for stage in wl.smoke_campaign(7).stages)
    assert stages == metrics.SMOKE_STAGES


def test_benchmark_json_matches_the_catalogue():
    with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        assert json.load(handle) == metrics.benchmark_json()


def _result_line(*args):
    completed = subprocess.run(
        [sys.executable, str(RUN_PY), *args],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        cwd=wl.ROOT,
        timeout=170,
    )
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "trace, catalogue", [("0", metrics.END_TO_END), ("1", metrics.PER_LAYER)]
)
def test_printed_metrics_match_benchmark_json(trace, catalogue):
    line = _result_line(
        "--workload", "campaign_cold", "--seed", "1", "--seconds", "1",
        "--trace", trace,
    )
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    printed = {name: entry["unit"] for name, entry in line["metrics"].items()}
    assert printed == {metric.name: metric.unit for metric in catalogue}


def test_span_tree_is_well_formed_and_tracing_is_bit_neutral(tmp_path):
    from repro.runtime import spec as spec_module
    from repro.runtime.cache import ResultCache
    from repro.runtime.executor import SerialExecutor

    spec = wl.engine_specs("pvc_adversarial", 1)[4]  # the cheapest spec
    plain = SerialExecutor().run([spec]).results
    original = spec_module.execute_spec
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    instrumentation.install()
    try:
        with tracer.span("bench.pass"):
            traced = SerialExecutor().run([spec], cache=ResultCache(tmp_path)).results
    finally:
        instrumentation.remove()
    assert spec_module.execute_spec is original
    assert traced == plain
    assert check_tree(tracer.spans) == []
    names = {span["name"] for span in tracer.spans}
    assert {
        "bench.pass",
        "runtime.executor_run",
        "runtime.cache_get",
        "runtime.cache_put",
        "runtime.execute_spec",
        "topologies.build",
        "traffic.build_flows",
        "network.construct",
        "network.run",
    } <= names
    assert all(value >= 0 for value in self_times(tracer.spans).values())
    assert tracer.counters["network.sim_cycles"] == spec.cycles
    assert tracer.counters["qos.priority_calls"] > 0


def test_check_tree_rejects_a_child_outside_its_parent():
    parent = {"id": "1.1", "name": "a", "parent": None, "pid": 1,
              "start": 0.0, "end": 1.0}
    child = {"id": "1.2", "name": "b", "parent": "1.1", "pid": 1,
             "start": 0.5, "end": 1.5}
    assert check_tree([parent, child])
    assert self_times([parent, {**child, "end": 0.75}])["a"] == pytest.approx(0.75)


def test_a_wrong_expectation_counts_as_an_error():
    from repro.runtime.spec import execute_spec

    specs = wl.engine_specs("pvc_adversarial", wl.DEFAULT_SEED)
    expected = wl.load_committed("pvc_adversarial")
    index = 4  # mecs / workload2, the cheapest spec
    result = execute_spec(specs[index])
    assert wl.engine_failures([result], [expected[index]]) == []
    wrong = dict(expected[index], delivered_flits=expected[index]["delivered_flits"] + 1)
    prepared = wl.Prepared("pvc_adversarial", 1, wl.STATE_DIR, specs=[specs[index]])
    checker = run.Checker(prepared)
    checker.check(wl.PassResult(1.0, [result]), [wrong])
    assert checker.failed / checker.attempted > 0


def test_wrong_campaign_rows_count_as_errors():
    rows = wl.load_committed("campaign_cold")
    report = SimpleNamespace(
        stages=[SimpleNamespace(name=name, verdict="pass") for name in rows]
    )
    outcome = wl.PassResult(1.0, rows, report=report)
    assert wl.campaign_failures(outcome, rows, wl.DEFAULT_SEED) == []
    wrong = dict(rows, fig4=rows["fig4"][:-1])
    assert wl.campaign_failures(outcome, wrong, wl.DEFAULT_SEED) == [
        "stage fig4: rows differ from the expectation"
    ]


def test_calibration_kernel_is_fixed():
    assert run.calibration_kernel() == run.calibration_kernel()


def test_fails_without_the_program(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        wl.BENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pvc_adversarial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
