"""Tests for replication through a ReplicationGroup."""

import numpy as np
import pytest

from repro.cluster.placement import PartitionPlacement
from repro.net import Network, azure_topology, local_cluster_topology
from repro.raft import RaftReplica, ReplicationGroup, Role
from repro.sim import Simulator


def build(datacenters=("VA", "WA", "PR"), replica_factory=None):
    sim = Simulator()
    net = Network(sim, azure_topology())
    group = ReplicationGroup(
        sim,
        net,
        PartitionPlacement(0, tuple(datacenters)),
        replica_factory=replica_factory,
    )
    return sim, net, group


def test_designated_leader_is_ready_at_time_zero():
    _, _, group = build()
    assert group.leader.role is Role.LEADER
    assert group.leader.datacenter == "VA"


def test_replicate_commits_after_one_round_trip_to_nearest_majority():
    sim, _, group = build()
    committed_at = []
    future = group.leader.propose({"op": "x"})
    future.add_done_callback(lambda f: committed_at.append(sim.now))
    sim.run(until=1.0)
    assert future.done
    # Majority of {VA, WA, PR} from VA needs the nearest follower ack:
    # WA at RTT 67 ms.
    assert committed_at[0] == pytest.approx(0.067, abs=0.005)


def test_replicate_resolves_with_log_index():
    sim, _, group = build()
    f1 = group.leader.propose("a")
    f2 = group.leader.propose("b")
    sim.run(until=1.0)
    assert f1.value == 1
    assert f2.value == 2


def test_entries_apply_in_order_on_all_replicas():
    applied = []

    class Recorder(RaftReplica):
        def on_apply(self, payload, index):
            applied.append((payload, index))

    sim, _, group = build(replica_factory=Recorder)
    for op in "abc":
        group.leader.propose(op)
    sim.run(until=2.0)
    # 3 replicas each apply 3 entries, in index order per replica.
    assert len(applied) == 9
    per_replica = [applied[i::1] for i in range(1)]  # flatten check below
    indexes_seen = [index for _, index in applied]
    assert sorted(indexes_seen) == [1, 1, 1, 2, 2, 2, 3, 3, 3]
    # Order is never violated: for the concatenated stream, each index i+1
    # appears only after index i has appeared at least once.
    first_seen = {}
    for position, (_, index) in enumerate(applied):
        first_seen.setdefault(index, position)
    assert first_seen[1] < first_seen[2] < first_seen[3]


def test_follower_logs_converge_to_leader_log():
    sim, _, group = build()
    for op in range(5):
        group.leader.propose(op)
    sim.run(until=2.0)
    leader_log = group.leader.log.entries_from(1)
    for replica in group.replicas:
        assert replica.log.entries_from(1) == leader_log
        assert replica.commit_index == 5


def test_followers_append_the_leaders_entry_objects():
    sim, _, group = build()
    for op in range(5):
        group.leader.propose(op)
    sim.run(until=2.0)
    leader_log = group.leader.log.entries_from(1)
    for replica in group.replicas:
        follower_log = replica.log.entries_from(1)
        assert len(follower_log) == len(leader_log)
        assert all(a is b for a, b in zip(follower_log, leader_log))


def test_propose_on_follower_fails():
    sim, _, group = build()
    follower = group.replicas[1]
    future = follower.propose("x")
    assert future.done
    with pytest.raises(RuntimeError):
        future.value


def test_single_replica_group_commits_immediately():
    sim, net, group = build(datacenters=("VA",))
    future = group.leader.propose("solo")
    sim.run(until=0.1)
    assert future.value == 1


def test_many_concurrent_proposals_all_commit():
    sim, _, group = build()
    futures = [group.leader.propose(i) for i in range(50)]
    sim.run(until=2.0)
    assert all(f.done for f in futures)
    assert [f.value for f in futures] == list(range(1, 51))


class AckJitter:
    """Per-link delays: fixed out of ``leader_dc``, spread over up to
    ten times the base delay on the way back into it.  Each link stays
    FIFO, so the two followers' acks overtake one another."""

    def __init__(self, topology, leader_dc, rng):
        self._topology = topology
        self._leader_dc = leader_dc
        self._rng = rng

    def _spread(self, src_dc, dst_dc):
        return dst_dc == self._leader_dc and src_dc != dst_dc

    def sample(self, src_dc, dst_dc):
        base = self._topology.one_way(src_dc, dst_dc)
        if self._spread(src_dc, dst_dc):
            return base * (1.0 + 9.0 * self._rng.random())
        return base


def test_deep_backlog_releases_every_future_once_in_index_order():
    sim = Simulator()
    topology = local_cluster_topology()
    net = Network(
        sim, topology, AckJitter(topology, "DC1", np.random.default_rng(7))
    )
    group = ReplicationGroup(
        sim,
        net,
        PartitionPlacement(0, ("DC1", "DC2", "DC3")),
    )
    leader = group.leader
    acks = []
    handle_ack = leader.handle_append_entries_response

    def record_ack(payload, src):
        acks.append(payload.match_index)
        handle_ack(payload, src)

    leader.handle_append_entries_response = record_ack

    released = []
    futures = [group.leader.propose(n) for n in range(600)]
    assert len(leader._commit_futures) == 600
    for index, future in enumerate(futures, start=1):
        future.add_done_callback(
            lambda f, index=index: released.append((index, f.value))
        )
    sim.run(until=2.0)

    # Acks really arrived out of index order.
    assert acks != sorted(acks)
    assert released == [(index, index) for index in range(1, 601)]
    assert not leader._commit_futures
