"""Integration tests for Natto's basic timestamp prioritization (TS)."""

import pytest

from repro.core import Natto, natto_ts
from repro.harness import run_until_settled
from repro.txn.priority import Priority

from tests.helpers import build_system, rmw_spec

WARMUP = 2.5  # probe proxies need ~1 s of samples + a round trip


def build(config=None, client_dcs=None, seed=0):
    cluster, clients, stats = build_system(
        Natto(config or natto_ts()), client_dcs=client_dcs or ["VA"], seed=seed
    )
    cluster.sim.run(until=WARMUP)  # warm the delay estimates
    return cluster, clients, stats


def test_single_transaction_commits():
    cluster, clients, stats = build()
    clients[0].submit(rmw_spec("t1", ["alpha", "beta"]))
    run_until_settled(cluster.sim, clients, after=WARMUP, cap=WARMUP + 10)
    (record,) = stats.records
    assert record.committed
    assert record.retries == 0


def test_latency_close_to_carousel_basic_at_no_contention():
    """Figure 7(a) at 50 txn/s: Natto-TS ~= Carousel Basic, because the
    timestamp wait is masked by the furthest participant's RTT."""
    from repro.systems.carousel import CarouselBasic

    results = {}
    for label, system_factory in (
        ("natto", lambda: Natto(natto_ts())),
        ("carousel", lambda: CarouselBasic()),
    ):
        cluster, clients, stats = build_system(
            system_factory(), client_dcs=["VA"]
        )
        cluster.sim.run(until=WARMUP)
        clients[0].submit(rmw_spec("t1", [f"key-{i}" for i in range(10)]))
        run_until_settled(cluster.sim, clients, after=WARMUP, cap=WARMUP + 10)
        results[label] = stats.records[0].latency
    assert results["natto"] == pytest.approx(results["carousel"], rel=0.25)


def test_timestamps_are_in_the_future_at_enqueue():
    cluster, clients, stats = build()
    clients[0].submit(rmw_spec("t1", ["k"]))
    run_until_settled(cluster.sim, clients, after=WARMUP, cap=WARMUP + 10)
    system = clients[0].system
    late = sum(
        g.leader.stats["late_aborts"] for g in system.groups.values()
    )
    assert late == 0
    assert stats.records[0].committed


def test_conflicting_transactions_commit_without_occ_aborts_in_ts_order():
    """Two conflicting low-priority transactions submitted a full RTT
    apart process in timestamp order with no aborts — Natto's ordering
    removes the arrival-order races Carousel aborts on."""
    cluster, clients, stats = build(client_dcs=["VA", "SG"])

    def staged():
        clients[0].submit(rmw_spec("t1", ["hot"], marker="A"))
        yield 0.5
        clients[1].submit(rmw_spec("t2", ["hot"], marker="B"))

    cluster.sim.spawn(staged())
    run_until_settled(
        cluster.sim, clients, after=WARMUP + 0.5, cap=WARMUP + 30
    )
    assert all(r.committed for r in stats.records)
    assert all(r.retries == 0 for r in stats.records)


def test_high_priority_waits_for_earlier_conflicts_instead_of_aborting():
    cluster, clients, stats = build(client_dcs=["VA", "SG"])

    def staged():
        clients[0].submit(rmw_spec("tlow", ["hot"], priority=Priority.LOW,
                                   marker="L"))
        yield 0.05
        clients[1].submit(rmw_spec("thigh", ["hot"], priority=Priority.HIGH,
                                   marker="H"))

    cluster.sim.spawn(staged())
    run_until_settled(
        cluster.sim, clients, after=WARMUP + 0.05, cap=WARMUP + 30
    )
    assert len(stats.records) == 2
    assert all(r.committed for r in stats.records)
    high = next(r for r in stats.records if r.priority is Priority.HIGH)
    assert high.retries == 0  # waited, never aborted


def test_store_state_serializes_conflicting_writers():
    cluster, clients, stats = build(client_dcs=["VA", "SG"])
    clients[0].submit(rmw_spec("t1", ["hot"], marker="A"))
    clients[1].submit(rmw_spec("t2", ["hot"], marker="B"))
    run_until_settled(cluster.sim, clients, after=WARMUP, cap=WARMUP + 60)
    assert all(r.committed for r in stats.records)
    system = clients[0].system
    pid = cluster.partitioner.partition_of("hot")
    value = system.groups[pid].leader.store.read("hot").value
    assert value.count("A") == 1 and value.count("B") == 1


def _assert_drained(system, label):
    for group in system.groups.values():
        leader = group.leader
        assert leader.txns == {}, label
        assert leader.queue == [], label
        assert leader.waiting == [], label
        assert len(leader.prepared) == 0, label
        assert leader._index._by_key == {}, label
        assert leader._conditions == {}, label
        assert leader._rap_seen == set(), label
        assert leader._applied_early == set(), label
    for group in system.coordinators.values():
        assert group.leader._recsf_waiters == {}, label


def test_server_structures_drain_after_quiescence():
    """Once every transaction has finished, no attempt is left in any
    leader structure or coordinator table: priority, OCC and outcome
    exits all pass through the one retire path.

    First ten read-modify-writes from two DCs on two hot keys under
    Natto-TS, which must all commit; then every Natto variant at the
    converged point (YCSB+T, 20 txn/s, 600 keys, 2 s of load, seed 0),
    where Natto-CP aborts both ways."""
    from repro.experiments.common import Scale
    from repro.harness.experiment import ExperimentSettings, run_experiment
    from repro.harness.systems import SYSTEM_FACTORIES
    from repro.workloads import YcsbTWorkload

    cluster, clients, stats = build(client_dcs=["VA", "PR"])
    for i, client in enumerate(clients):
        for j in range(5):
            client.submit(rmw_spec(f"t{i}-{j}", [f"k{j % 2}"]))
    run_until_settled(cluster.sim, clients, after=WARMUP, cap=WARMUP + 120)
    assert len(stats.records) == 10
    assert all(r.committed for r in stats.records)
    _assert_drained(clients[0].system, "hot keys")

    settings = Scale(
        "converged", duration=2.0, trim=0.5, repeats=1, drain=40.0
    ).apply(ExperimentSettings()).scaled(seed=0)
    exits = {}
    for name in ("Natto-TS", "Natto-LECSF", "Natto-PA", "Natto-CP",
                 "Natto-RECSF"):
        result = run_experiment(
            SYSTEM_FACTORIES[name],
            lambda rng: YcsbTWorkload(rng, num_keys=600),
            20.0,
            settings,
        )
        assert result.unfinished == 0, name
        leaders = [group.leader for group in result.system.groups.values()]
        exits[name] = [
            sum(leader.stats[kind] for leader in leaders)
            for kind in ("priority_aborts", "occ_aborts")
        ]
        _assert_drained(result.system, name)
    # The point exercises both early exits, not only the outcomes.
    assert all(count > 0 for count in exits["Natto-CP"])


def test_follower_stores_converge():
    cluster, clients, stats = build()
    for i in range(5):
        clients[0].submit(rmw_spec(f"t{i}", [f"key-{i}"]))
    run_until_settled(cluster.sim, clients, after=WARMUP, cap=WARMUP + 30)
    assert all(r.committed for r in stats.records)
    for group in clients[0].system.groups.values():
        for replica in group.replicas:
            for key, versioned in replica.store._data.items():
                if versioned.writer is not None:
                    leader_value = group.leader.store.read(key).value
                    assert versioned.value == leader_value


def test_variant_names():
    from repro.core import natto_cp, natto_lecsf, natto_pa, natto_recsf

    assert Natto(natto_ts()).name == "Natto-TS"
    assert Natto(natto_lecsf()).name == "Natto-LECSF"
    assert Natto(natto_pa()).name == "Natto-PA"
    assert Natto(natto_cp()).name == "Natto-CP"
    assert Natto(natto_recsf()).name == "Natto-RECSF"
