"""Public API surface: imports, __all__, and the README quickstart."""

import importlib
import pkgutil

import pytest

import repro

#: The root package and every subpackage, each with its own ``__all__``.
PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


def test_version():
    assert repro.__version__ == "1.10.0"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert hasattr(module, name), name
        assert name in listed, name


def test_quickstart_snippet_runs():
    # The exact flow documented in the package docstring / README.
    from repro import ColumnSimulator, PvcPolicy, SimulationConfig
    from repro import get_topology, uniform_workload

    topology = get_topology("dps")
    config = SimulationConfig(frame_cycles=10_000)
    sim = ColumnSimulator(
        topology.build(config), uniform_workload(0.05), PvcPolicy(), config
    )
    stats = sim.run(2_000, warmup=500)
    assert stats.mean_latency > 0


def test_system_snippet_runs():
    from repro import TopologyAwareSystem

    system = TopologyAwareSystem()
    system.admit_vm("web", n_threads=24, weight=2.0)
    system.admit_vm("db", n_threads=16, weight=3.0)
    assert system.audit_isolation() == []


def test_experiment_modules_importable():
    from repro.analysis import experiments

    for name in experiments.__all__:
        assert hasattr(experiments, name)
