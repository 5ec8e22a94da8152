"""Tests for the multi-level priority extension (paper future work).

Three levels (LOW < MEDIUM < HIGH); every Natto mechanism compares
priorities relationally, so HIGH preempts MEDIUM preempts LOW.
"""

from repro.cluster.partition import Partitioner
from repro.core.config import natto_pa, natto_ts
from repro.core.server import NattoParticipant
from repro.net.network import Network
from repro.net.topology import azure_topology
from repro.sim import Simulator
from repro.txn.priority import Priority

from tests.core import test_natto_server_unit as server_unit


def build(config):
    sim = Simulator()
    net = Network(sim, azure_topology())
    server = NattoParticipant(
        sim,
        net,
        "p0-VA",
        "VA",
        peers=["p0-VA"],
        natto_config=config,
        partitioner=Partitioner(1),
    )
    server.become_leader()

    client = server_unit.Recorder(sim, "client")
    coord = server_unit.Recorder(sim, "coord")
    net.register(client)
    net.register(coord)
    return sim, server, client, coord


def rap(txn, ts, priority, keys=("k",)):
    return server_unit.rap(txn, ts, int(priority), keys)


def test_priority_order():
    assert Priority.LOW < Priority.MEDIUM < Priority.HIGH
    assert not Priority.LOW.uses_locking
    assert Priority.MEDIUM.uses_locking
    assert Priority.HIGH.uses_locking


def test_medium_priority_uses_locking_prepare():
    sim, server, client, coord = build(natto_ts())
    server.handle_read_and_prepare(rap("t1", 0.05, Priority.LOW), "client")
    r2 = server.handle_read_and_prepare(
        rap("t2", 0.06, Priority.MEDIUM), "client"
    )
    sim.run(until=1.0)
    # MEDIUM waits for the conflicting earlier LOW instead of aborting.
    assert not r2.done
    assert [t.txn for t in server.waiting] == ["t2"]


def test_high_evicts_medium_and_low_in_queue():
    sim, server, client, coord = build(natto_pa())
    r_low = server.handle_read_and_prepare(
        rap("tlow", 0.20, Priority.LOW), "client"
    )
    r_mid = server.handle_read_and_prepare(
        rap("tmid", 0.21, Priority.MEDIUM), "client"
    )
    server.handle_read_and_prepare(rap("thigh", 0.22, Priority.HIGH), "client")
    assert server.stats["priority_aborts"] == 2
    assert r_low.value.ok is False
    assert r_mid.value.ok is False
    assert [t.txn for t in server.queue] == ["thigh"]


def test_medium_evicts_low_but_not_high():
    sim, server, client, coord = build(natto_pa())
    r_low = server.handle_read_and_prepare(
        rap("tlow", 0.20, Priority.LOW), "client"
    )
    server.handle_read_and_prepare(rap("thigh", 0.21, Priority.HIGH), "client")
    server.handle_read_and_prepare(rap("tmid", 0.22, Priority.MEDIUM), "client")
    # tlow evicted (by high and/or medium); thigh untouched; tmid queued.
    assert r_low.value.ok is False
    assert [t.txn for t in server.queue] == ["thigh", "tmid"]


def test_arriving_low_yields_to_queued_medium():
    sim, server, client, coord = build(natto_pa())
    server.handle_read_and_prepare(rap("tmid", 0.30, Priority.MEDIUM), "client")
    r_low = server.handle_read_and_prepare(
        rap("tlow", 0.29, Priority.LOW), "client"
    )
    assert r_low.value.ok is False  # priority-aborted on arrival
    assert server.stats["priority_aborts"] == 1


def test_equal_priorities_never_preempt_each_other():
    sim, server, client, coord = build(natto_pa())
    server.handle_read_and_prepare(rap("t1", 0.20, Priority.MEDIUM), "client")
    server.handle_read_and_prepare(rap("t2", 0.21, Priority.MEDIUM), "client")
    assert server.stats["priority_aborts"] == 0
    assert len(server.queue) == 2


def test_three_levels_end_to_end():
    from tests.helpers import build_system, rmw_spec
    from repro.core import Natto
    from repro.harness import run_until_settled

    cluster, clients, stats = build_system(
        Natto(natto_pa()), client_dcs=["VA"]
    )
    cluster.sim.run(until=2.5)
    client = clients[0]

    def staged():
        client.submit(rmw_spec("tl", ["hot"], priority=Priority.LOW))
        yield 0.01
        client.submit(rmw_spec("tm", ["hot"], priority=Priority.MEDIUM))
        yield 0.01
        client.submit(rmw_spec("th", ["hot"], priority=Priority.HIGH))

    cluster.sim.spawn(staged())
    run_until_settled(cluster.sim, clients, after=2.5 + 2 * 0.01, cap=60.0)
    assert all(r.committed for r in stats.records)
    high = next(r for r in stats.records if r.priority is Priority.HIGH)
    assert high.retries == 0
