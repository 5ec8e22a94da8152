"""Integration tests for the 2PL+2PC family."""

import pytest

from repro.harness import run_until_settled
from repro.systems.carousel import CarouselBasic
from repro.systems.twopl import (
    PreemptOnWaitPolicy,
    PreemptPolicy,
    TwoPL,
    WoundWaitPolicy,
)
from repro.txn.priority import Priority

from tests.helpers import build_system, rmw_spec


def test_single_transaction_commits():
    cluster, clients, stats = build_system(TwoPL(), client_dcs=["VA"])
    clients[0].submit(rmw_spec("t1", ["alpha", "beta"]))
    run_until_settled(cluster.sim, clients, after=0.0, cap=10.0)
    (record,) = stats.records
    assert record.committed
    assert record.retries == 0


def test_sequential_structure_is_slower_than_carousel():
    latencies = {}
    for label, system in (("2pl", TwoPL()), ("carousel", CarouselBasic())):
        cluster, clients, stats = build_system(system, client_dcs=["VA"])
        clients[0].submit(rmw_spec("t1", [f"key-{i}" for i in range(10)]))
        run_until_settled(cluster.sim, clients, after=0.0, cap=10.0)
        latencies[label] = stats.records[0].latency
    # Paper: ~715 ms vs ~370 ms at low load.
    assert latencies["2pl"] > latencies["carousel"] * 1.4


def test_conflicting_transactions_serialize_without_deadlock():
    cluster, clients, stats = build_system(TwoPL(), client_dcs=["VA", "SG"])
    clients[0].submit(rmw_spec("tva", ["hot"], marker="A"))
    clients[1].submit(rmw_spec("tsg", ["hot"], marker="B"))
    run_until_settled(cluster.sim, clients, after=0.0, cap=60.0)
    assert len(stats.records) == 2
    assert all(r.committed for r in stats.records)
    system = clients[0].system
    pid = cluster.partitioner.partition_of("hot")
    value = system.groups[pid].leader.store.read("hot").value
    assert value.count("A") == 1 and value.count("B") == 1


def test_cross_partition_contention_resolves_via_wound_wait():
    """Two transactions lock two hot keys in opposite arrival orders —
    the classic distributed deadlock shape; wound-wait must resolve it."""
    cluster, clients, stats = build_system(TwoPL(), client_dcs=["VA", "SG"])
    keys = ["deadlock-a", "deadlock-b"]
    clients[0].submit(rmw_spec("t1", keys, marker="X"))
    clients[1].submit(rmw_spec("t2", list(reversed(keys)), marker="Y"))
    run_until_settled(cluster.sim, clients, after=0.0, cap=120.0)
    assert len(stats.records) == 2
    assert all(r.committed for r in stats.records)


def test_locks_drain_after_quiescence():
    cluster, clients, stats = build_system(TwoPL(), client_dcs=["VA", "PR"])
    for i, client in enumerate(clients):
        for j in range(4):
            client.submit(rmw_spec(f"t{i}-{j}", [f"k{j % 2}"]))
    run_until_settled(cluster.sim, clients, after=0.0, cap=120.0)
    assert all(r.committed for r in stats.records)
    for group in clients[0].system.groups.values():
        leader = group.leader
        assert leader.locks._requests == {}
        assert leader.pending_writes == {}


@pytest.mark.parametrize(
    "policy_cls", [WoundWaitPolicy, PreemptPolicy, PreemptOnWaitPolicy]
)
def test_all_variants_commit_mixed_priorities(policy_cls):
    cluster, clients, stats = build_system(
        TwoPL(policy_cls()), client_dcs=["VA", "SG"]
    )
    clients[0].submit(rmw_spec("th", ["hot"], priority=Priority.HIGH))
    clients[1].submit(rmw_spec("tl", ["hot"], priority=Priority.LOW))
    run_until_settled(cluster.sim, clients, after=0.0, cap=120.0)
    assert len(stats.records) == 2
    assert all(r.committed for r in stats.records)


def test_preemption_wounds_low_priority_holder():
    """(P): a high-priority requester evicts a younger AND older
    low-priority lock holder still in its read phase."""
    cluster, clients, stats = build_system(
        TwoPL(PreemptPolicy()), client_dcs=["SG", "VA"]
    )
    # Low-priority txn from SG grabs the lock first (it is older).
    clients[0].submit(rmw_spec("tlow", ["hot"], priority=Priority.LOW))

    def later():
        yield 0.02
        clients[1].submit(rmw_spec("thigh", ["hot"], priority=Priority.HIGH))

    cluster.sim.spawn(later())
    run_until_settled(cluster.sim, clients, after=0.02, cap=120.0)
    assert all(r.committed for r in stats.records)
    system = clients[0].system
    total_wounds = sum(
        g.leader.wounds_sent for g in system.groups.values()
    )
    # Plain wound-wait would never wound here (the holder is older);
    # preemption must have.
    assert total_wounds >= 1


def test_policy_names_match_paper_labels():
    assert TwoPL().name == "2PL+2PC"
    assert TwoPL(PreemptPolicy()).name == "2PL+2PC(P)"
    assert TwoPL(PreemptOnWaitPolicy()).name == "2PL+2PC(POW)"
