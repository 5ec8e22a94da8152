"""Integration tests for TAPIR."""

from repro.harness import run_until_settled
from repro.systems.carousel import CarouselBasic, CarouselFast
from repro.systems.tapir import Tapir

from tests.helpers import build_system, rmw_spec, write_spec


def test_single_transaction_commits():
    cluster, clients, stats = build_system(Tapir(), client_dcs=["VA"])
    clients[0].submit(rmw_spec("t1", ["alpha", "beta"]))
    run_until_settled(cluster.sim, clients, after=0.0, cap=10.0)
    (record,) = stats.records
    assert record.committed
    assert record.retries == 0


def test_latency_between_fast_and_basic_at_no_contention():
    latencies = {}
    for label, system in (
        ("basic", CarouselBasic()),
        ("fast", CarouselFast()),
        ("tapir", Tapir()),
    ):
        cluster, clients, stats = build_system(system, client_dcs=["VA"])
        clients[0].submit(rmw_spec("t1", [f"key-{i}" for i in range(10)]))
        run_until_settled(cluster.sim, clients, after=0.0, cap=10.0)
        latencies[label] = stats.records[0].latency
    # Paper, Figure 7(a) at 50 txn/s: Fast < TAPIR < Basic.
    assert latencies["fast"] < latencies["tapir"] < latencies["basic"]


def test_conflicting_transactions_serialize_with_retries():
    cluster, clients, stats = build_system(Tapir(), client_dcs=["VA", "SG"])
    clients[0].submit(rmw_spec("tva", ["hot"], marker="A"))
    clients[1].submit(rmw_spec("tsg", ["hot"], marker="B"))
    run_until_settled(cluster.sim, clients, after=0.0, cap=60.0)
    assert len(stats.records) == 2
    assert all(r.committed for r in stats.records)
    system = clients[0].system
    pid = cluster.partitioner.partition_of("hot")
    values = {
        replica.store.read("hot").value
        for replica in system.groups[pid].replicas
    }
    assert len(values) == 1  # replicas converged
    (value,) = values
    assert value.count("A") == 1
    assert value.count("B") == 1


def test_stale_read_is_caught_by_validation():
    cluster, clients, stats = build_system(Tapir(), client_dcs=["VA"])
    client = clients[0]
    system = client.system
    pid = cluster.partitioner.partition_of("k")
    group = system.groups[pid]

    def sequence():
        yield client.submit(write_spec("t1", ["k"], "fresh"))
        yield 2.0  # commits propagate everywhere
        # Manually stale-ify one replica that is NOT the read replica, to
        # simulate a laggard (IR's sync protocol, which would repair a
        # stale read replica, is out of scope).
        closest = group.closest_replica_name("VA", cluster.topology)
        victim = next(r for r in group.replicas if r.name != closest)
        victim.store._data.pop("k", None)
        # The new transaction sees mixed votes (2 ok / 1 stale-abort) and
        # must commit through the slow path — never wedge.
        yield client.submit(rmw_spec("t2", ["k"]))

    cluster.sim.spawn(sequence())
    cluster.sim.run(until=60.0)
    assert all(r.committed for r in stats.records)


def test_prepared_sets_drain_after_quiescence():
    cluster, clients, stats = build_system(Tapir(), client_dcs=["VA", "PR"])
    for i, client in enumerate(clients):
        for j in range(5):
            client.submit(rmw_spec(f"t{i}-{j}", [f"k{j % 2}"]))
    run_until_settled(cluster.sim, clients, after=0.0, cap=120.0)
    assert all(r.committed for r in stats.records)
    for group in clients[0].system.groups.values():
        for replica in group.replicas:
            assert len(replica.prepared) == 0


def test_reads_use_closest_replica():
    cluster, clients, stats = build_system(Tapir(), client_dcs=["VA"])
    system = clients[0].system
    # For every partition, the chosen read replica from VA is the one
    # with minimal RTT.
    for group in system.groups.values():
        chosen = group.closest_replica_name("VA", cluster.topology)
        rtts = {
            r.name: cluster.topology.rtt("VA", r.datacenter)
            for r in group.replicas
        }
        assert rtts[chosen] == min(rtts.values())
