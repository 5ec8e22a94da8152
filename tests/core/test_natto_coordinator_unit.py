"""Direct-drive unit tests for the Natto coordinator's vote machine."""

from repro.cluster.node import Node
from repro.cluster.partition import Partitioner
from repro.core.coordinator import NattoCoordinator
from repro.net.network import Network
from repro.net.payload import (
    ConditionResolved,
    DecisionEvent,
    NattoCommitRequest,
    NattoVoteYes,
    PartitionValuesEvent,
    RecsfForward,
    VoteReason,
)
from repro.net.topology import azure_topology
from repro.sim import Simulator


class Recorder(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name, "VA")
        self.events = []

    def handle_txn_event(self, payload, src):
        self.events.append(payload)

    def handle_commit_txn(self, payload, src):
        self.events.append(payload)


def build():
    sim = Simulator()
    net = Network(sim, azure_topology())
    leaders = {0: "leader0", 1: "leader1"}
    coord = NattoCoordinator(
        sim,
        net,
        "p1000-VA",
        "VA",
        peers=["p1000-VA"],
        partitioner=Partitioner(2),
        leader_names=leaders,
    )
    coord.become_leader()
    client = Recorder(sim, "client")
    net.register(client)
    net.register(Recorder(sim, "leader0"))
    net.register(Recorder(sim, "leader1"))
    return sim, coord, client


def vote(coord, txn, pid, epoch=0, conditional=None, vote="yes"):
    if vote == "yes":
        payload = NattoVoteYes(
            txn, pid, vote, epoch, conditional, [0, 1], "client"
        )
    else:
        payload = VoteReason(txn, pid, vote, [0, 1], "client", None)
    coord.handle_vote(payload, "leaderX")


def commit_request(coord, txn, epochs):
    coord.handle_commit_request(
        NattoCommitRequest(txn, "client", [0, 1], {"k": "v"}, epochs),
        "client",
    )


def forward_t1_to_t2(coord):
    coord.handle_recsf_forward(
        RecsfForward("t1", "t2", "client", 0, ["k"]), "leader0"
    )


def decisions(client):
    return [e for e in client.events if e.kind == "decision"]


def recsf_reads(client):
    return [e for e in client.events if e.kind == "recsf_reads"]


def test_commits_when_all_votes_firm_and_epochs_match():
    sim, coord, client = build()
    vote(coord, "t1", 0)
    vote(coord, "t1", 1)
    commit_request(coord, "t1", {0: 0, 1: 0})
    sim.run(until=1.0)
    assert [e.as_dict() for e in decisions(client)] == [
        DecisionEvent("t1", True).as_dict()
    ]


def test_conditional_vote_blocks_commit_until_resolved():
    sim, coord, client = build()
    vote(coord, "t1", 0)
    vote(coord, "t1", 1, conditional=["blocker"])
    commit_request(coord, "t1", {0: 0, 1: 0})
    sim.run(until=1.0)
    assert decisions(client) == []  # waiting on the condition
    coord.handle_condition_resolved(
        ConditionResolved("t1", 1, True, 0), "leader1"
    )
    sim.run(until=2.0)
    assert decisions(client)[0].committed is True


def test_failed_condition_discards_vote_and_waits_for_new_epoch():
    sim, coord, client = build()
    vote(coord, "t1", 0)
    vote(coord, "t1", 1, conditional=["blocker"])
    commit_request(coord, "t1", {0: 0, 1: 0})
    coord.handle_condition_resolved(
        ConditionResolved("t1", 1, False, 0), "leader1"
    )
    sim.run(until=1.0)
    assert decisions(client) == []
    # The normal path re-votes at epoch 1 and the client re-sends writes
    # computed from the epoch-1 reads.
    vote(coord, "t1", 1, epoch=1)
    commit_request(coord, "t1", {0: 0, 1: 1})
    sim.run(until=2.0)
    assert decisions(client)[-1].committed is True


def test_epoch_mismatch_blocks_commit():
    """Writes computed from stale (conditional) reads must not commit
    against a newer-epoch vote."""
    sim, coord, client = build()
    vote(coord, "t1", 0)
    vote(coord, "t1", 1, epoch=1)        # normal path, second epoch
    commit_request(coord, "t1", {0: 0, 1: 0})  # stale client writes
    sim.run(until=1.0)
    assert decisions(client) == []
    commit_request(coord, "t1", {0: 0, 1: 1})  # recomputed writes
    sim.run(until=2.0)
    assert decisions(client)[-1].committed is True


def test_no_vote_aborts_immediately():
    sim, coord, client = build()
    vote(coord, "t1", 0, vote="no")
    sim.run(until=1.0)
    assert [e.as_dict() for e in decisions(client)] == [
        DecisionEvent("t1", False).as_dict()
    ]


def test_recsf_forward_served_on_commit():
    sim, coord, client = build()
    forward_t1_to_t2(coord)
    vote(coord, "t1", 0)
    vote(coord, "t1", 1)
    commit_request(coord, "t1", {0: 0, 1: 0})
    sim.run(until=1.0)
    assert [e.as_dict() for e in recsf_reads(client)] == [
        PartitionValuesEvent("t2", "recsf_reads", 0, {"k": "v"}).as_dict()
    ]


def test_recsf_forward_dropped_on_abort():
    sim, coord, client = build()
    forward_t1_to_t2(coord)
    vote(coord, "t1", 0, vote="no")
    sim.run(until=1.0)
    assert recsf_reads(client) == []


def test_recsf_forward_after_commit_served_immediately():
    sim, coord, client = build()
    vote(coord, "t1", 0)
    vote(coord, "t1", 1)
    commit_request(coord, "t1", {0: 0, 1: 0})
    sim.run(until=1.0)
    forward_t1_to_t2(coord)
    sim.run(until=2.0)
    assert recsf_reads(client)


def test_rereplication_on_updated_writes():
    """A second commit request re-replicates; only the latest version's
    durability enables the commit."""
    sim, coord, client = build()
    commit_request(coord, "t1", {0: 0, 1: 0})
    commit_request(coord, "t1", {0: 0, 1: 1})
    vote(coord, "t1", 0)
    vote(coord, "t1", 1, epoch=1)
    sim.run(until=2.0)
    assert decisions(client)[-1].committed is True
    assert coord.txn_state("t1").writes_version == 2
