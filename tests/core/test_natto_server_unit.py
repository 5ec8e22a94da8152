"""Direct-drive unit tests for the Natto participant server.

These bypass the client protocol and feed crafted payloads straight to
one participant leader, so branches that are hard to reach end-to-end
(mispredicted conditional prepares, late-arrival rules, tombstones) get
deterministic coverage.
"""

import pytest

from repro.cluster.node import Node
from repro.cluster.partition import Partitioner
from repro.cluster.placement import PartitionPlacement
from repro.core.config import natto_cp, natto_recsf, natto_ts
from repro.core.server import NattoParticipant
from repro.net.network import Network
from repro.net.payload import CommitTxn, NattoReadAndPrepare
from repro.net.topology import azure_topology
from repro.sim import Simulator


class Recorder(Node):
    """Stub client/coordinator that records every message."""

    def __init__(self, sim, name):
        super().__init__(sim, name, "VA")
        self.messages = []

    def handle_txn_event(self, payload, src):
        self.messages.append(("txn_event", payload))

    def handle_vote(self, payload, src):
        self.messages.append(("vote", payload))

    def handle_condition_resolved(self, payload, src):
        self.messages.append(("condition_resolved", payload))

    def handle_recsf_forward(self, payload, src):
        self.messages.append(("recsf_forward", payload))

    def of_kind(self, kind):
        return [p for (m, p) in self.messages if m == kind]


def build(config):
    sim = Simulator()
    net = Network(sim, azure_topology())
    server = NattoParticipant(
        sim,
        net,
        "p0-VA",
        "VA",
        peers=["p0-VA"],  # single-replica group: propose commits instantly
        natto_config=config,
        partitioner=Partitioner(8),
    )
    # RaftReplica registers itself with the network at construction.
    server.become_leader()
    client = Recorder(sim, "client")
    coord = Recorder(sim, "coord")
    net.register(client)
    net.register(coord)
    return sim, server, client, coord


PARTITIONER = Partitioner(8)


def key_on(pid, tag="k"):
    """A key name that hashes to partition ``pid``."""
    i = 0
    while True:
        key = f"{tag}-{i}"
        if PARTITIONER.partition_of(key) == pid:
            return key
        i += 1


K0 = key_on(0)          # a key on the server's own partition
K7 = key_on(7, "r")     # a key on the "remote" partition 7


def rap(txn, ts, priority, keys, arrival_estimates=None, max_owd=0.05,
        participants=(0,)):
    return NattoReadAndPrepare(
        txn, ts, priority, list(keys), list(keys), "coord", "client",
        list(participants), arrival_estimates or {0: ts}, max_owd,
    )


def test_prepare_serves_reads_and_votes_after_replication():
    sim, server, client, coord = build(natto_ts())
    reply = server.handle_read_and_prepare(rap("t1", 0.05, 0, [K0]), "client")
    sim.run(until=1.0)
    assert reply.value.ok is True
    assert K0 in reply.value.values
    votes = coord.of_kind("vote")
    assert votes and votes[0].vote == "yes"
    assert "t1" in server.prepared


def test_low_priority_conflict_aborts_at_dispatch():
    sim, server, client, coord = build(natto_ts())
    server.handle_read_and_prepare(rap("t1", 0.05, 0, [K0]), "client")
    r2 = server.handle_read_and_prepare(rap("t2", 0.06, 0, [K0]), "client")
    sim.run(until=1.0)
    assert r2.value.ok is False
    assert server.stats["occ_aborts"] == 1
    no_votes = [v for v in coord.of_kind("vote") if v.vote == "no"]
    assert [v.txn for v in no_votes] == ["t2"]


def test_high_priority_conflict_waits_then_prepares():
    sim, server, client, coord = build(natto_ts())
    server.handle_read_and_prepare(rap("t1", 0.05, 0, [K0]), "client")
    r2 = server.handle_read_and_prepare(rap("t2", 0.06, 1, [K0]), "client")
    sim.run(until=1.0)
    assert not r2.done  # waiting, not aborted
    server.handle_commit_txn(CommitTxn("t1", True, {K0: "v1"}), "coord")
    sim.run(until=2.0)
    assert r2.value.ok is True
    # Without LECSF the read must still see t1's committed write.
    assert r2.value.values[K0] == "v1"


def test_late_high_priority_with_smaller_ts_conflict_aborts():
    sim, server, client, coord = build(natto_ts())
    server.handle_read_and_prepare(rap("t1", 0.01, 0, [K0]), "client")
    sim.run(until=0.5)  # t1 dispatched and prepared; clock now 0.5
    late = server.handle_read_and_prepare(rap("t2", 0.02, 1, [K0]), "client")
    assert late.value.ok is False
    assert server.stats["late_aborts"] == 1


def test_late_transaction_without_conflict_proceeds():
    sim, server, client, coord = build(natto_ts())
    sim.run(until=0.5)
    late = server.handle_read_and_prepare(
        rap("t1", 0.01, 1, [key_on(0, "solo")]), "client"
    )
    sim.run(until=1.0)
    assert late.value.ok is True


def test_late_low_priority_aborts_if_larger_ts_conflict_dispatched():
    sim, server, client, coord = build(natto_ts())
    server.handle_read_and_prepare(rap("t2", 0.01, 0, [K0]), "client")
    sim.run(until=0.5)  # t2 (ts 0.01) prepared
    late = server.handle_read_and_prepare(rap("t1", 0.005, 0, [K0]), "client")
    assert late.value.ok is False
    assert server.stats["late_aborts"] == 1


def test_abort_tombstone_refuses_reordered_request():
    sim, server, client, coord = build(natto_ts())
    # The abort decision arrives before the read-and-prepare.
    server.handle_commit_txn(CommitTxn("ghost", False, None), "coord")
    reply = server.handle_read_and_prepare(
        rap("ghost", 0.05, 0, [K0]), "client"
    )
    assert reply.value.ok is False
    assert server.queue == []
    assert "ghost" not in server.prepared


def test_conditional_prepare_failure_falls_back_to_normal_path():
    sim, server, client, coord = build(natto_cp())
    # tlow prepared here; its participants include remote partition 7.
    low = rap("tlow", 0.01, 0, [K0, K7], {0: 0.01, 7: 0.01},
              participants=[0, 7])
    server.handle_read_and_prepare(low, "client")
    sim.run(until=0.1)
    assert "tlow" in server.prepared

    # thigh conflicts here and at "partition 7"; its estimates claim it
    # reaches 7 before tlow's timestamp -> predicted priority abort.
    high = rap("thigh", 0.12, 1, [K0, K7], {0: 0.12, 7: 0.005},
               participants=[0, 7])
    reply = server.handle_read_and_prepare(high, "client")
    sim.run(until=0.3)
    assert server.stats["conditional_prepares"] == 1
    assert reply.value.epoch == 0
    cond_votes = [v for v in coord.of_kind("vote") if v.conditional]
    assert cond_votes and cond_votes[0].txn == "thigh"

    # The prediction was wrong: tlow COMMITS.
    server.handle_commit_txn(CommitTxn("tlow", True, {K0: "vlow"}), "coord")
    sim.run(until=0.6)
    assert server.stats["conditions_failed"] == 1
    resolved = coord.of_kind("condition_resolved")
    assert resolved and resolved[0].ok is False
    # Normal path re-prepared thigh with a bumped epoch and fresh reads.
    events = [p for p in client.of_kind("txn_event") if p.kind == "reads"]
    assert events and events[-1].epoch == 1
    assert events[-1].values[K0] == "vlow"  # post-tlow state
    epoch1_votes = [
        v for v in coord.of_kind("vote")
        if v.txn == "thigh" and v.epoch == 1
    ]
    assert epoch1_votes and not epoch1_votes[0].conditional


def test_conditional_prepare_success_upgrades_in_place():
    sim, server, client, coord = build(natto_cp())
    low = rap("tlow", 0.01, 0, [K0, K7], {0: 0.01, 7: 0.01},
              participants=[0, 7])
    server.handle_read_and_prepare(low, "client")
    sim.run(until=0.1)
    high = rap("thigh", 0.12, 1, [K0, K7], {0: 0.12, 7: 0.005},
               participants=[0, 7])
    server.handle_read_and_prepare(high, "client")
    sim.run(until=0.3)
    # The prediction was right: tlow ABORTS (priority abort elsewhere).
    server.handle_commit_txn(CommitTxn("tlow", False, None), "coord")
    sim.run(until=0.6)
    assert server.stats["conditions_ok"] == 1
    resolved = coord.of_kind("condition_resolved")
    assert resolved and resolved[0].ok is True
    assert "thigh" in server.prepared
    assert server.waiting == []


def test_recsf_forward_sent_for_blocked_high_priority():
    sim, server, client, coord = build(natto_recsf())
    server.handle_read_and_prepare(rap("tlow", 0.01, 0, [K0]), "client")
    sim.run(until=0.1)
    # High-priority conflict, no CP prediction (no common remote pid).
    server.handle_read_and_prepare(rap("thigh", 0.12, 1, [K0]), "client")
    sim.run(until=0.3)
    forwards = coord.of_kind("recsf_forward")
    assert forwards
    assert forwards[0].txn == "tlow"
    assert forwards[0].reader == "thigh"
    assert forwards[0].keys == [K0]


def test_queue_dispatches_in_timestamp_order_not_arrival_order():
    sim, server, client, coord = build(natto_ts())
    order = []
    r_late_ts = server.handle_read_and_prepare(
        rap("bigger-ts", 0.30, 0, [key_on(0, "a")]), "client"
    )
    r_early_ts = server.handle_read_and_prepare(
        rap("smaller-ts", 0.20, 0, [key_on(0, "b")]), "client"
    )
    r_early_ts.add_done_callback(lambda f: order.append("smaller-ts"))
    r_late_ts.add_done_callback(lambda f: order.append("bigger-ts"))
    sim.run(until=1.0)
    assert order == ["smaller-ts", "bigger-ts"]


def test_priority_abort_on_queue_insert():
    sim, server, client, coord = build(
        natto_cp()  # pa enabled via the ladder
    )
    r_low = server.handle_read_and_prepare(rap("tlow", 0.20, 0, [K0]), "client")
    server.handle_read_and_prepare(rap("thigh", 0.21, 1, [K0]), "client")
    assert server.stats["priority_aborts"] == 1
    assert r_low.value.ok is False
    assert [t.txn for t in server.queue] == ["thigh"]


def test_arriving_low_yields_to_queued_higher_priority():
    sim, server, client, coord = build(natto_cp())
    # High-priority conflict already queued with a *larger* timestamp;
    # the arriving low-priority transaction must refuse itself (the
    # yield branch of PA, which scans queue then waiting).
    server.handle_read_and_prepare(rap("thigh", 0.30, 1, [K0]), "client")
    r_low = server.handle_read_and_prepare(rap("tlow", 0.20, 0, [K0]), "client")
    assert r_low.value.ok is False
    assert server.stats["priority_aborts"] == 1
    assert [t.txn for t in server.queue] == ["thigh"]
    sim.run(until=0.1)  # deliver the no-vote to the coordinator
    no_votes = [v for v in coord.of_kind("vote") if v.vote == "no"]
    assert [v.txn for v in no_votes] == ["tlow"]


def test_priority_abort_skip_rule_unit():
    sim, server, client, coord = build(natto_cp())
    # tlow's completion estimate: ts + 2*max_owd + 0.05 = 0.2+0.06+0.05.
    server.handle_read_and_prepare(
        rap("tlow", 0.20, 0, [K0], max_owd=0.03), "client"
    )
    # thigh executes comfortably after that -> no need to abort.
    server.handle_read_and_prepare(rap("thigh", 0.90, 1, [K0]), "client")
    assert server.stats["priority_aborts"] == 0
    assert len(server.queue) == 2
