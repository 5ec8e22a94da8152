"""Integration tests for Carousel Fast."""

from repro.harness import run_until_settled
from repro.systems.carousel import CarouselBasic, CarouselFast

from tests.helpers import build_system, rmw_spec, write_spec


def test_single_transaction_commits():
    cluster, clients, stats = build_system(CarouselFast(), client_dcs=["VA"])
    clients[0].submit(rmw_spec("t1", ["alpha", "beta"]))
    run_until_settled(cluster.sim, clients, after=0.0, cap=10.0)
    (record,) = stats.records
    assert record.committed


def test_fast_path_beats_basic_at_no_contention():
    latencies = {}
    for label, system in (("basic", CarouselBasic()), ("fast", CarouselFast())):
        cluster, clients, stats = build_system(system, client_dcs=["VA"])
        clients[0].submit(rmw_spec("t1", [f"key-{i}" for i in range(10)]))
        run_until_settled(cluster.sim, clients, after=0.0, cap=10.0)
        latencies[label] = stats.records[0].latency
    assert latencies["fast"] < latencies["basic"]


def test_conflicting_transactions_still_serialize():
    cluster, clients, stats = build_system(
        CarouselFast(), client_dcs=["VA", "SG"]
    )
    clients[0].submit(rmw_spec("tva", ["hot"], marker="A"))
    clients[1].submit(rmw_spec("tsg", ["hot"], marker="B"))
    run_until_settled(cluster.sim, clients, after=0.0, cap=60.0)
    assert len(stats.records) == 2
    assert all(r.committed for r in stats.records)


def test_follower_prepared_marks_drain_after_quiescence():
    cluster, clients, stats = build_system(CarouselFast(), client_dcs=["VA"])
    for i in range(6):
        clients[0].submit(rmw_spec(f"t{i}", [f"k{i % 2}"]))
    run_until_settled(cluster.sim, clients, after=0.0, cap=60.0)
    assert all(r.committed for r in stats.records)
    system = clients[0].system
    for group in system.groups.values():
        for replica in group.replicas:
            assert len(replica.prepared) == 0


def test_sequential_writes_all_apply():
    cluster, clients, stats = build_system(CarouselFast(), client_dcs=["VA"])
    client = clients[0]

    def sequence():
        for i in range(4):
            yield client.submit(write_spec(f"t{i}", ["k"], f"v{i}"))
            yield 0.5
    cluster.sim.spawn(sequence())
    cluster.sim.run(until=60.0)
    assert all(r.committed for r in stats.records)
    system = client.system
    pid = cluster.partitioner.partition_of("k")
    assert system.groups[pid].leader.store.read("k").value == "v3"
