"""Integration tests for Carousel Basic."""

import pytest

from repro.harness import run_until_settled
from repro.systems.carousel import CarouselBasic
from repro.txn.priority import Priority

from tests.helpers import build_system, read_spec, rmw_spec, write_spec


def run(cluster, clients, until=10.0):
    """Run until the submitted transactions settle, capped at ``until``."""
    run_until_settled(cluster.sim, clients, after=cluster.sim.now, cap=until)


def test_single_transaction_commits():
    cluster, clients, stats = build_system(CarouselBasic(), client_dcs=["VA"])
    clients[0].submit(rmw_spec("t1", ["alpha", "beta"]))
    run(cluster, clients)
    (record,) = stats.records
    assert record.committed
    assert record.retries == 0


def test_commit_latency_is_about_two_wan_round_trips():
    cluster, clients, stats = build_system(CarouselBasic(), client_dcs=["VA"])
    # Keys spread over all partitions: the furthest leader dominates.
    clients[0].submit(rmw_spec("t1", [f"key-{i}" for i in range(10)]))
    run(cluster, clients)
    (record,) = stats.records
    # Read round: RTT to the furthest leader (VA->SG, 214 ms).  Commit:
    # prepare replication + vote transit, bounded by ~2x the furthest
    # RTT overall.  The paper's Carousel Basic measures ~350-450 ms.
    assert 0.25 < record.latency < 0.60


def test_writes_become_visible_to_later_transactions():
    cluster, clients, stats = build_system(CarouselBasic(), client_dcs=["VA"])
    client = clients[0]

    observed = {}

    def sequence():
        done = yield client.submit(write_spec("t1", ["k"], "hello"))
        assert done
        yield 1.0  # let commit messages reach participants and apply
        reader = read_spec("t2", ["k"])
        values = {}
        original = reader.compute_writes

        def capture(reads):
            observed.update(reads)
            return original(reads)

        yield client.submit(
            reader.__class__(
                txn_id="t2",
                read_keys=("k",),
                write_keys=(),
                compute_writes=capture,
            )
        )

    cluster.sim.spawn(sequence())
    # Submits its second transaction after a gap with nothing in flight,
    # so it runs to a fixed horizon.
    cluster.sim.run(until=10.0)
    assert observed.get("k") == "hello"


def test_conflicting_transactions_serialize_with_retries():
    cluster, clients, stats = build_system(
        CarouselBasic(), client_dcs=["VA", "SG"]
    )
    # Both transactions hammer the same key from different continents.
    clients[0].submit(rmw_spec("tva", ["hot"], marker="A"))
    clients[1].submit(rmw_spec("tsg", ["hot"], marker="B"))
    run(cluster, clients, until=30.0)
    assert len(stats.records) == 2
    assert all(r.committed for r in stats.records)
    # The value must contain both markers exactly once each.
    system_store = None
    for group in _groups(cluster):
        leader = group.leader
        if "hot" in leader.store._data:
            system_store = leader.store
    value = system_store.read("hot").value
    assert value.count("A") == 1
    assert value.count("B") == 1


def _groups(cluster):
    # The system object holds groups; fish it off any registered client.
    for node in cluster.network._nodes.values():
        system = getattr(node, "system", None)
        if system is not None:
            return system.groups.values()
    raise AssertionError("no client registered")


def test_follower_stores_converge_to_leader():
    cluster, clients, stats = build_system(CarouselBasic(), client_dcs=["VA"])
    for i in range(5):
        clients[0].submit(write_spec(f"t{i}", [f"key-{i}"], f"value-{i}"))
    run(cluster, clients, until=20.0)
    assert all(r.committed for r in stats.records)
    for group in _groups(cluster):
        leader_data = {
            k: v.value for k, v in group.leader.store._data.items()
        }
        for replica in group.replicas:
            for key, versioned in replica.store._data.items():
                if versioned.writer is not None:  # a committed write
                    assert leader_data[key] == versioned.value


def test_prepared_sets_drain_after_quiescence():
    cluster, clients, stats = build_system(CarouselBasic(), client_dcs=["VA"])
    for i in range(10):
        clients[0].submit(rmw_spec(f"t{i}", [f"k{i % 3}"]))
    run(cluster, clients, until=60.0)
    assert all(r.committed for r in stats.records)
    for group in _groups(cluster):
        assert len(group.leader.prepared) == 0


def test_high_and_low_priority_treated_identically():
    """Carousel has no prioritization: a high-priority transaction aborts
    under conflict just like a low-priority one."""
    cluster, clients, stats = build_system(
        CarouselBasic(), client_dcs=["VA", "SG"]
    )
    clients[0].submit(rmw_spec("th", ["hot"], priority=Priority.HIGH))
    clients[1].submit(rmw_spec("tl", ["hot"], priority=Priority.LOW))
    run(cluster, clients, until=30.0)
    assert all(r.committed for r in stats.records)


def test_voluntary_abort_after_reads_counts_as_complete():
    cluster, clients, stats = build_system(CarouselBasic(), client_dcs=["VA"])
    from repro.txn.transaction import TransactionSpec

    spec = TransactionSpec(
        txn_id="tv",
        read_keys=("a",),
        write_keys=("a",),
        compute_writes=lambda reads: None,
    )
    clients[0].submit(spec)
    run(cluster, clients)
    (record,) = stats.records
    assert record.committed
    # And the prepared marks were released, so a second txn commits fast.
    clients[0].submit(rmw_spec("t2", ["a"]))
    run(cluster, clients, until=20.0)
    assert all(r.committed for r in stats.records)
