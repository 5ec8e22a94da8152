"""Scenario tests for Natto's prioritization mechanisms (PA/CP/ECSF).

These use deterministic clocks (zero skew) and hand-placed keys so each
mechanism fires in a controlled geometry mirroring the paper's Figures
3-6.
"""

import pytest

from repro.cluster.clock import ClockConfig
from repro.core import (
    Natto,
    natto_cp,
    natto_lecsf,
    natto_pa,
    natto_recsf,
    natto_ts,
)
from repro.harness import run_until_settled
from repro.systems.base import SystemConfig
from repro.txn.priority import Priority

from tests.helpers import build_system, rmw_spec

WARMUP = 2.5


def key_for_partition(partitioner, pid, salt=""):
    i = 0
    while True:
        key = f"key{salt}-{i}"
        if partitioner.partition_of(key) == pid:
            return key
        i += 1


def exact_clock_config():
    return SystemConfig(clock=ClockConfig(max_offset=0.0))


def build(config, client_dcs, seed=0):
    cluster, clients, stats = build_system(
        Natto(config),
        config=exact_clock_config(),
        client_dcs=client_dcs,
        seed=seed,
    )
    cluster.sim.run(until=WARMUP)
    return cluster, clients, stats


def leader_stats(system, name):
    return {
        pid: group.leader.stats[name] for pid, group in system.groups.items()
    }


# ---------------------------------------------------------------------------
# Priority Abort (Figure 3)


def test_priority_abort_evicts_queued_low_priority_transaction():
    cluster, clients, stats = build(natto_pa(), ["VA"])
    partitioner = cluster.partitioner
    near = key_for_partition(partitioner, 0)   # leader in VA
    far = key_for_partition(partitioner, 4)    # leader in SG
    client = clients[0]

    def staged():
        # Low-priority txn: buffered at the VA leader until its (far-
        # dominated) timestamp.
        client.submit(rmw_spec("tlow", [near, far], priority=Priority.LOW))
        yield 0.020
        # High-priority txn with a larger timestamp conflicts at VA while
        # tlow is still queued there -> priority abort.
        client.submit(rmw_spec("thigh", [near, far], priority=Priority.HIGH))

    cluster.sim.spawn(staged())
    run_until_settled(
        cluster.sim, clients, after=WARMUP + 0.020, cap=WARMUP + 60
    )
    assert all(r.committed for r in stats.records)
    high = next(r for r in stats.records if r.priority is Priority.HIGH)
    low = next(r for r in stats.records if r.priority is Priority.LOW)
    assert high.retries == 0
    assert low.retries >= 1  # it was priority-aborted and retried
    aborts = leader_stats(client.system, "priority_aborts")
    assert sum(aborts.values()) >= 1


def test_priority_abort_skipped_when_low_priority_completes_in_time():
    """The completion-time estimate: a low-priority transaction that will
    finish well before the high-priority execution time is left alone."""
    cluster, clients, stats = build(natto_pa(), ["VA"])
    partitioner = cluster.partitioner
    near = key_for_partition(partitioner, 0)   # VA-only: tiny timestamp
    far = key_for_partition(partitioner, 4)
    client = clients[0]

    def staged():
        client.submit(rmw_spec("tlow", [near], priority=Priority.LOW))
        yield 0.005
        # The high-priority timestamp is ~107 ms out (SG participant);
        # tlow completes in ~50 ms, so no abort is necessary.
        client.submit(rmw_spec("thigh", [near, far], priority=Priority.HIGH))

    cluster.sim.spawn(staged())
    run_until_settled(
        cluster.sim, clients, after=WARMUP + 0.005, cap=WARMUP + 60
    )
    assert all(r.committed for r in stats.records)
    assert all(r.retries == 0 for r in stats.records)
    aborts = leader_stats(clients[0].system, "priority_aborts")
    assert sum(aborts.values()) == 0


def test_without_pa_low_priority_is_not_evicted():
    cluster, clients, stats = build(natto_lecsf(), ["VA"])
    partitioner = cluster.partitioner
    near = key_for_partition(partitioner, 0)
    far = key_for_partition(partitioner, 4)
    client = clients[0]

    def staged():
        client.submit(rmw_spec("tlow", [near, far], priority=Priority.LOW))
        yield 0.020
        client.submit(rmw_spec("thigh", [near, far], priority=Priority.HIGH))

    cluster.sim.spawn(staged())
    run_until_settled(
        cluster.sim, clients, after=WARMUP + 0.020, cap=WARMUP + 60
    )
    assert all(r.committed for r in stats.records)
    low = next(r for r in stats.records if r.priority is Priority.LOW)
    assert low.retries == 0  # never aborted
    aborts = leader_stats(client.system, "priority_aborts")
    assert sum(aborts.values()) == 0


def test_pa_reduces_high_priority_latency():
    latencies = {}
    for label, config in (("pa", natto_pa()), ("no_pa", natto_lecsf())):
        cluster, clients, stats = build(config, ["VA"])
        partitioner = cluster.partitioner
        near = key_for_partition(partitioner, 0)
        far = key_for_partition(partitioner, 4)
        client = clients[0]

        def staged():
            client.submit(rmw_spec("tlow", [near, far], priority=Priority.LOW))
            yield 0.020
            client.submit(
                rmw_spec("thigh", [near, far], priority=Priority.HIGH)
            )

        cluster.sim.spawn(staged())
        run_until_settled(
            cluster.sim, clients, after=WARMUP + 0.020, cap=WARMUP + 60
        )
        high = next(r for r in stats.records if r.priority is Priority.HIGH)
        latencies[label] = high.latency
    assert latencies["pa"] < latencies["no_pa"]


# ---------------------------------------------------------------------------
# Conditional Prepare (Figure 4)


def test_conditional_prepare_fires_and_condition_succeeds():
    # Client (and thus coordinator) in WA; the blocker partition's leader
    # is in VA, so the priority-abort notification detours WA before
    # reaching SG — leaving a ~60 ms window where SG holds the prepared
    # low-priority transaction and must conditionally prepare.
    cluster, clients, stats = build(natto_cp(), ["WA"])
    partitioner = cluster.partitioner
    near = key_for_partition(partitioner, 0)   # participant A (VA)
    far = key_for_partition(partitioner, 4)    # participant B (SG)
    client = clients[0]

    def staged():
        client.submit(rmw_spec("tlow", [near, far], priority=Priority.LOW))
        yield 0.020
        client.submit(rmw_spec("thigh", [near, far], priority=Priority.HIGH))

    cluster.sim.spawn(staged())
    run_until_settled(
        cluster.sim, clients, after=WARMUP + 0.020, cap=WARMUP + 60
    )
    assert all(r.committed for r in stats.records)
    high = next(r for r in stats.records if r.priority is Priority.HIGH)
    assert high.retries == 0
    system = client.system
    cps = leader_stats(system, "conditional_prepares")
    oks = leader_stats(system, "conditions_ok")
    # tlow was priority-aborted at VA; at SG it was already prepared, so
    # thigh must have conditionally prepared there, and the condition
    # must have resolved successfully.
    assert sum(cps.values()) >= 1
    assert sum(oks.values()) >= 1
    assert sum(leader_stats(system, "conditions_failed").values()) == 0


def test_cp_latency_not_worse_than_pa_only():
    latencies = {}
    for label, config in (("cp", natto_cp()), ("pa", natto_pa())):
        cluster, clients, stats = build(config, ["WA"])
        partitioner = cluster.partitioner
        near = key_for_partition(partitioner, 0)
        far = key_for_partition(partitioner, 4)
        client = clients[0]

        def staged():
            client.submit(rmw_spec("tlow", [near, far], priority=Priority.LOW))
            yield 0.020
            client.submit(
                rmw_spec("thigh", [near, far], priority=Priority.HIGH)
            )

        cluster.sim.spawn(staged())
        run_until_settled(
            cluster.sim, clients, after=WARMUP + 0.020, cap=WARMUP + 60
        )
        high = next(r for r in stats.records if r.priority is Priority.HIGH)
        latencies[label] = high.latency
    assert latencies["cp"] <= latencies["pa"] + 1e-9


# ---------------------------------------------------------------------------
# LECSF (Figure 5)


def lecsf_scenario(config):
    cluster, clients, stats = build(config, ["VA"])
    partitioner = cluster.partitioner
    far = key_for_partition(partitioner, 4)    # SG partition only
    client = clients[0]

    def staged():
        client.submit(rmw_spec("t1", [far], priority=Priority.LOW))
        yield 0.010
        client.submit(rmw_spec("t2", [far], priority=Priority.HIGH))

    cluster.sim.spawn(staged())
    run_until_settled(
        cluster.sim, clients, after=WARMUP + 0.010, cap=WARMUP + 60
    )
    assert all(r.committed for r in stats.records)
    high = next(r for r in stats.records if r.priority is Priority.HIGH)
    return high.latency


def test_lecsf_cuts_a_replication_round_for_blocked_transactions():
    with_lecsf = lecsf_scenario(natto_lecsf())
    without = lecsf_scenario(natto_ts())
    # The SG leader's write replication (nearest follower round trip,
    # 163 ms) is off the blocked transaction's critical path with LECSF.
    assert without - with_lecsf > 0.10


# ---------------------------------------------------------------------------
# RECSF (Figure 6)


def recsf_scenario(config):
    cluster, clients, stats = build(config, ["PR"])
    partitioner = cluster.partitioner
    nsw = key_for_partition(partitioner, 3)    # leader in NSW
    client = clients[0]

    def staged():
        client.submit(rmw_spec("t1", [nsw], priority=Priority.LOW))
        yield 0.010
        client.submit(rmw_spec("t2", [nsw], priority=Priority.HIGH))

    cluster.sim.spawn(staged())
    run_until_settled(
        cluster.sim, clients, after=WARMUP + 0.010, cap=WARMUP + 60
    )
    assert all(r.committed for r in stats.records)
    high = next(r for r in stats.records if r.priority is Priority.HIGH)
    return high.latency, clients[0].system


def test_recsf_forwards_reads_and_reduces_latency():
    recsf_latency, system = recsf_scenario(natto_recsf())
    cp_latency, _ = recsf_scenario(natto_cp())
    forwards = leader_stats(system, "recsf_forwards")
    assert sum(forwards.values()) >= 1
    # PR's coordinator replication is slower than NSW's prepare
    # replication, so serving the reads from t1's coordinator moves the
    # client's write round off the critical path.
    assert recsf_latency < cp_latency - 0.02
