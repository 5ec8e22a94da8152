"""Serializability of every system under forced contention.

Each system runs a burst of tagged read-modify-write transactions over
a tiny hot key set from clients on three continents — maximal conflict
pressure — and the committed history must be conflict-serializable with
no lost updates.
"""

import pytest

from repro.harness import run_until_settled
from repro.harness.systems import SYSTEM_FACTORIES, make_system
from repro.txn.priority import Priority
from repro.verify import (
    ExecutionTrace,
    SerializabilityChecker,
    enable_history,
    partition_stores,
    tagged_rmw_spec,
)

from tests.helpers import build_system

HOT_KEYS = ["hot-a", "hot-b", "hot-c"]


@pytest.mark.parametrize("system_name", sorted(SYSTEM_FACTORIES))
def test_contended_history_is_serializable(system_name):
    from repro.systems.base import SystemConfig

    # A touch of delay jitter, as any real network has: with perfectly
    # constant delays, OCC mutual-abort retries stay synchronized
    # forever — an artifact, not a protocol property.
    config = SystemConfig(delay_variance_cv=0.01)
    # The burst is far beyond the paper's contention regime (three hot
    # keys, every transaction conflicting); lift the 100-retry cap so
    # the invariant under test is convergence + correctness.
    cluster, clients, stats = build_system(
        make_system(system_name),
        config=config,
        client_dcs=["VA", "PR", "SG"],
        max_retries=1000,
    )
    system = clients[0].system
    enable_history(system)
    cluster.sim.run(until=2.5)  # probe warm-up (needed by Natto variants)

    trace = ExecutionTrace()
    index = 0

    def burst():
        nonlocal index
        for round_number in range(3):
            for client in clients:
                for j in range(2):
                    keys = [HOT_KEYS[(index + j) % len(HOT_KEYS)],
                            HOT_KEYS[(index + j + 1) % len(HOT_KEYS)]]
                    priority = (
                        Priority.HIGH if (index + j) % 3 == 0 else Priority.LOW
                    )
                    spec = tagged_rmw_spec(
                        trace, f"t{index}-{j}-{client.name}", keys, priority
                    )
                    client.submit(spec)
                index += 2
            yield 0.15

    cluster.sim.spawn(burst())
    # Generous cap: under this contention the youngest transactions in
    # the 2PL systems only win the wound-wait race near the end.
    run_until_settled(cluster.sim, clients, after=2.5 + 2 * 0.15, cap=600.0)

    committed = [r.txn_id for r in stats.records if r.committed]
    assert committed, "nothing committed"
    # Liveness expectations differ by family.  Systems that order or
    # queue conflicting work (wound-wait 2PL, Natto's timestamp order)
    # must drain the burst completely.  Pure OCC retry systems
    # (Carousel, TAPIR) legitimately starve under adversarial
    # contention — the paper itself counts transactions that fail after
    # 100 retries — so for them we require most of the burst to drain.
    occ_family = {"Carousel Basic", "Carousel Fast", "TAPIR"}
    if system_name in occ_family:
        assert len(committed) >= 0.5 * len(stats.records)
    else:
        assert all(r.committed for r in stats.records)

    checker = SerializabilityChecker(
        partition_stores(system), trace, committed
    )
    graph = checker.check()
    assert set(graph) == set(committed)


# ----------------------------------------------------------------------
# Canned fault schedules: the same contended burst, but with the network
# or servers misbehaving mid-flight.  Every family must stay
# serializable AND satisfy the protocol invariants (2PC atomicity, Raft
# safety, replica consistency, priority sanity, session monotonicity).


def _crash_target(system_name):
    """A deterministic non-leader replica for this family's deployment."""
    from repro.net.topology import azure_topology
    from repro.systems.base import Cluster, SystemConfig
    from repro.verify.fuzz import _fault_targets

    probe = make_system(system_name)
    probe.setup(Cluster(azure_topology(), SystemConfig(), seed=0))
    followers, _leaders, replicas = _fault_targets(probe)
    return followers[0] if followers else replicas[0]


def _canned_schedules(system_name):
    from repro.faults import (
        FaultSchedule,
        loss_burst,
        region_partition,
        server_crash,
    )

    return {
        "loss-burst": FaultSchedule(
            (loss_burst(3.0, 4.0, loss_rate=0.2, rto=0.05),)
        ),
        "partition-heal": FaultSchedule(
            (region_partition(3.0, 2.5, ["VA", "WA"], ["PR", "NSW", "SG"]),)
        ),
        "crash-recover": FaultSchedule(
            (server_crash(3.0, 2.5, _crash_target(system_name)),)
        ),
    }


@pytest.mark.parametrize("fault_name", ["loss-burst", "partition-heal",
                                        "crash-recover"])
@pytest.mark.parametrize(
    "system_name", ["2PL+2PC", "TAPIR", "Carousel Basic", "Natto-RECSF"]
)
def test_faulted_history_is_serializable_and_invariant(system_name,
                                                       fault_name):
    from repro.verify.fuzz import ScenarioSpec, run_scenario

    schedule = _canned_schedules(system_name)[fault_name]
    outcome = run_scenario(
        ScenarioSpec(system=system_name, seed=0, schedule=schedule)
    )
    assert outcome.ok, outcome.report.summary()
    assert outcome.committed == outcome.submitted
