"""Direct-drive unit tests for the 2PL participant server."""

from repro.cluster.node import Node
from repro.net.network import Network
from repro.net.payload import CommitTxn, LockRead, ReleaseLocks, TwoPLPrepare
from repro.net.topology import azure_topology
from repro.sim import Simulator
from repro.systems.twopl.policy import PreemptPolicy, WoundWaitPolicy
from repro.systems.twopl.server import TwoPLParticipant


class Recorder(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name, "VA")
        self.events = []

    def handle_txn_event(self, payload, src):
        self.events.append(("txn_event", payload))

    def handle_vote(self, payload, src):
        self.events.append(("vote", payload))

    def of_kind(self, kind):
        return [p for k, p in self.events if k == kind]


def build(policy=None):
    sim = Simulator()
    net = Network(sim, azure_topology())
    server = TwoPLParticipant(
        sim,
        net,
        "p0-VA",
        "VA",
        peers=["p0-VA"],
        policy=policy or WoundWaitPolicy(),
    )
    server.become_leader()
    client = Recorder(sim, "client")
    coord = Recorder(sim, "coord")
    net.register(client)
    net.register(coord)
    return sim, server, client, coord


def lock_read(server, txn, ts, priority=0, reads=("k",), writes=("k",)):
    return server.handle_lock_read(
        LockRead(txn, list(reads), list(writes), ts, priority, "client",
                 "coord", [0]),
        "client",
    )


def test_uncontended_lock_read_returns_values():
    sim, server, client, coord = build()
    reply = lock_read(server, "t1", 1.0)
    sim.run(until=0.5)
    assert reply.value.ok is True
    assert "k" in reply.value.values


def test_younger_conflicting_txn_waits():
    sim, server, client, coord = build()
    lock_read(server, "old", 1.0)
    young_reply = lock_read(server, "young", 2.0)
    sim.run(until=0.5)
    assert not young_reply.done
    assert server.locks.is_waiting("young")
    assert server.wounds_sent == 0  # young waits, never wounds


def test_older_requester_wounds_younger_holder():
    sim, server, client, coord = build()
    lock_read(server, "young", 2.0)
    lock_read(server, "old", 1.0)
    sim.run(until=0.5)
    assert server.wounds_sent == 1
    wounds = [p for p in client.of_kind("txn_event") if p.kind == "wound"]
    assert wounds and wounds[0].txn == "young"


def test_release_locks_unblocks_waiter_and_fails_pending_read():
    sim, server, client, coord = build()
    lock_read(server, "holder", 1.0)
    waiting = lock_read(server, "waiter", 2.0)   # blocked behind holder
    third = lock_read(server, "third", 3.0)      # blocked behind both
    sim.run(until=0.5)
    assert not waiting.done
    # The waiter's client gives up its attempt (wounded elsewhere).
    server.handle_release_locks(ReleaseLocks("waiter"), "client")
    sim.run(until=1.0)
    assert waiting.value.ok is False  # the abandoned read resolved
    # Releasing the holder now grants the third directly.
    server.handle_release_locks(ReleaseLocks("holder"), "client")
    sim.run(until=1.5)
    assert third.value.ok is True


def test_prepare_replicates_writes_and_votes():
    sim, server, client, coord = build()
    lock_read(server, "t1", 1.0)
    sim.run(until=0.5)
    server.handle_twopl_prepare(
        TwoPLPrepare("t1", {"k": "new"}, "coord", "client", [0]), "client"
    )
    sim.run(until=1.0)
    votes = coord.of_kind("vote")
    assert votes and votes[0].vote == "yes"
    assert server.pending_writes["t1"] == {"k": "new"}


def test_commit_applies_stashed_writes_and_releases():
    sim, server, client, coord = build()
    lock_read(server, "t1", 1.0)
    sim.run(until=0.5)
    server.handle_twopl_prepare(
        TwoPLPrepare("t1", {"k": "new"}, "coord", "client", [0]), "client"
    )
    sim.run(until=1.0)
    server.handle_commit_txn(CommitTxn("t1", True, None), "coord")
    sim.run(until=2.0)
    assert server.store.read("k").value == "new"
    assert server.locks.request_of("t1") is None
    assert "t1" not in server.pending_writes


def test_prepare_after_release_votes_no():
    """A wound that raced the prepare: the server must vote no so the
    coordinator aborts cleanly."""
    sim, server, client, coord = build()
    server.handle_twopl_prepare(
        TwoPLPrepare("ghost", {"k": "x"}, "coord", "client", [0]), "client"
    )
    sim.run(until=0.5)
    votes = coord.of_kind("vote")
    assert votes and votes[0].vote == "no"


def test_preempt_policy_wounds_low_priority_holder():
    sim, server, client, coord = build(PreemptPolicy())
    lock_read(server, "batch", 1.0, priority=0)
    lock_read(server, "vip", 2.0, priority=2)  # younger but high priority
    sim.run(until=0.5)
    assert server.wounds_sent == 1
    wounds = [p for p in client.of_kind("txn_event") if p.kind == "wound"]
    assert wounds[0].txn == "batch"


def test_wound_deduplicated_per_victim():
    sim, server, client, coord = build()
    lock_read(server, "young", 5.0, reads=("a", "b"), writes=("a", "b"))
    lock_read(server, "old", 1.0, reads=("a",), writes=("a",))
    lock_read(server, "old2", 2.0, reads=("b",), writes=("b",))
    sim.run(until=0.5)
    wounds = [p for p in client.of_kind("txn_event") if p.kind == "wound"]
    assert len([w for w in wounds if w.txn == "young"]) == 1
