"""Activity tracking: drain bookkeeping, frame rollover, cycle skipping.

Targets the paths the activity-tracked rework added or rewired:
``run_until_drained``'s aggregate undrained counter (drain detection and
the deadline :class:`SimulationError`), the frame-rollover
``carried_priority`` reset inside the cycle loop, and the invariants of
the cycle-skipping machinery (exact run bounds, idle-gap jumps, visited
plus skipped cycles).
"""

import pytest

from repro.errors import SimulationError
from repro.network.config import SimulationConfig
from repro.network.engine import ColumnSimulator
from repro.network.golden import GoldenColumnSimulator
from repro.network.packet import FlowSpec
from repro.obs import ProbeBus
from repro.qos.pvc import PvcPolicy
from repro.topologies.registry import get_topology

from helpers import build_simulator


def _flow(node=0, dst=7, rate=0.3, limit=None, size=(1, 1.0)):
    return FlowSpec(
        node=node, rate=rate, pattern=lambda s, rng: dst,
        size_mix=(size,), packet_limit=limit,
    )


# ----------------------------------------------------------------------
# run_until_drained

def test_drain_returns_cycle_after_last_ack():
    sim = build_simulator("mesh_x1", [_flow(rate=0.2, limit=10)])
    done = sim.run_until_drained(max_cycles=20_000)
    assert 0 < done < 20_000
    assert sim.cycle == done
    assert sim.stats.delivered_packets == 10
    state = sim.injector_state(0)
    assert state["outstanding"] == 0 and state["pending"] == 0


def test_drain_deadline_raises_simulation_error_with_outstanding():
    sim = build_simulator("mesh_x1", [_flow(rate=0.9, limit=500)])
    with pytest.raises(SimulationError, match="did not drain within 60"):
        sim.run_until_drained(max_cycles=60)


def test_drain_counts_every_finite_injector():
    flows = [_flow(node=n, dst=(n + 3) % 8, rate=0.1, limit=5) for n in range(8)]
    sim = build_simulator("mecs", flows)
    sim.run_until_drained(max_cycles=30_000)
    assert sim.stats.delivered_packets == 40
    assert all(
        sim.injector_state(f)["outstanding"] == 0 for f in range(len(flows))
    )


@pytest.mark.parametrize("engine", (ColumnSimulator, GoldenColumnSimulator))
def test_drain_exactly_at_the_budget_returns_the_cycle(engine):
    # A workload completing at cycle C drains within a budget of C: the
    # last step lands on the deadline and must still report the drain.
    config = SimulationConfig(frame_cycles=2000, seed=3)

    def fresh():
        fabric = get_topology("mesh_x1").build(config)
        return engine(fabric, [_flow(rate=0.2, limit=10)], PvcPolicy(), config)

    completion = fresh().run_until_drained(max_cycles=20_000)
    assert 0 < completion < 20_000
    assert fresh().run_until_drained(max_cycles=completion) == completion
    with pytest.raises(SimulationError, match="did not drain"):
        fresh().run_until_drained(max_cycles=completion - 1)


def test_drain_with_infinite_flow_never_completes():
    # A rate>0, unlimited flow is never idle: the budget must expire.
    sim = build_simulator("mesh_x1", [_flow(rate=0.05, limit=None)])
    with pytest.raises(SimulationError):
        sim.run_until_drained(max_cycles=500)


def test_drain_detects_work_created_after_an_idle_start():
    # Replays the manual-injection pattern used by timing tests: an
    # injector that starts idle (limit=0) is handed a packet directly;
    # the undrained counter must notice the revival.
    flows = [_flow(rate=0.0, limit=0)]
    sim = build_simulator("mesh_x1", flows)
    assert sim.run_until_drained(max_cycles=100) == 0
    injector = sim._injectors[0]
    injector.spec.packet_limit = None
    sim._create_packet(injector, now=sim.cycle)
    injector.spec.packet_limit = 0
    done = sim.run_until_drained(max_cycles=5000)
    assert done > 0
    assert sim.stats.delivered_packets == 1


# ----------------------------------------------------------------------
# frame rollover

def test_frame_flush_resets_carried_priority_in_flight():
    config = SimulationConfig(frame_cycles=64, seed=3)
    sim = build_simulator("dps", [_flow(rate=0.8, size=(4, 1.0))], config=config)
    sim.run(63)
    stamped = [
        vc.packet
        for station in sim.fabric.stations
        for vc in station.vcs
        if vc.packet is not None and vc.packet.carried_priority != 0.0
    ]
    assert stamped, "scenario must have stamped packets pre-flush"
    sim.run(2)  # executes the boundary step at cycle 64
    assert sim.cycle == 65
    for station in sim.fabric.stations:
        for vc in station.vcs:
            if vc.packet is not None:
                assert vc.packet.carried_priority == 0.0


def test_frame_flush_resets_policy_quota_counters():
    config = SimulationConfig(frame_cycles=100, seed=3)
    policy = PvcPolicy()
    sim = build_simulator(
        "mesh_x1", [_flow(rate=0.9)], policy=policy, config=config
    )
    sim.run(99)
    before_flush = policy.frame_injected(0)
    assert before_flush > 0
    sim.run(2)  # executes the boundary step at cycle 100
    # The flush zeroes the counter; cycle 100 itself may then create at
    # most one packet (<= 4 flits) before we observe it.
    assert policy.frame_injected(0) <= 4 < before_flush


def test_frame_boundaries_are_never_skipped():
    # Zero traffic and an idle fabric: cycle skipping may jump across
    # idle stretches, but every on_frame flush must still fire.
    calls = []

    class ProbePolicy(PvcPolicy):
        def on_frame(self, now):
            calls.append(now)
            super().on_frame(now)

    config = SimulationConfig(frame_cycles=250, seed=1)
    sim = build_simulator(
        "mesh_x1", [_flow(rate=0.0)], policy=ProbePolicy(), config=config
    )
    sim.run(2000)
    assert calls == [250, 500, 750, 1000, 1250, 1500, 1750]


# ----------------------------------------------------------------------
# cycle-skipping invariants

def test_run_bounds_are_exact_under_skipping():
    sim = build_simulator("mesh_x1", [_flow(rate=0.001)])
    for chunk in (1, 9, 1000, 1):
        before = sim.cycle
        sim.run(chunk)
        assert sim.cycle == before + chunk


def test_idle_simulation_is_cheap_in_steps():
    # With nothing to do, the engine should take giant strides: a
    # zero-rate flow over 100k cycles must cost only the frame flushes.
    sim = build_simulator(
        "mesh_x1", [_flow(rate=0.0)],
        config=SimulationConfig(frame_cycles=10_000, seed=1),
    )
    sim.run(100_000)
    assert sim.cycle == 100_000
    assert sim.visited_cycles <= 11  # one per frame boundary, plus the first


def test_sparse_traffic_skips_most_cycles():
    sim = build_simulator(
        "mecs", [_flow(rate=0.002)],
        config=SimulationConfig(frame_cycles=50_000, seed=2),
    )
    sim.run(50_000)
    assert sim.stats.delivered_packets > 0
    # ~40 packets x a dozen interesting cycles each << 50k cycles.
    assert sim.visited_cycles < 5000


def test_visited_plus_skipped_cycles_equal_cycles_advanced():
    sim = build_simulator(
        "mecs", [_flow(rate=0.01)],
        config=SimulationConfig(frame_cycles=3000, seed=2),
    )
    skipped = 0

    def on_skip(cycle, target):
        nonlocal skipped
        skipped += target - cycle - 1

    bus = ProbeBus()
    bus.subscribe("skip", on_skip)
    bus.attach(sim)
    sim.run(7000)
    sim.run_window(500, 2000)
    assert skipped > 0
    assert sim.visited_cycles + skipped == sim.cycle == 9500
