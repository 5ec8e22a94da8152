"""Raft under network partitions (fault injection).

The paper's experiments run failure-free, and the leader is fixed: no
partition deposes it.  These tests exercise what a partition can still
do to a group: stall commits while the leader has no majority, and
leave a replica behind, to be repaired by ``next_index`` back-off once
the partition heals.

A partition is a fault schedule that blackholes every message to and
from the isolated node.  The schedule is attached before the simulation
reaches its start: attached at the current instant, its window opens
only at the next ``sim.run``, and a proposal made in between escapes it.
"""

from repro.cluster.placement import PartitionPlacement
from repro.faults import FaultInjector, FaultSchedule, blackhole
from repro.net import Network, local_cluster_topology
from repro.raft import ReplicationGroup, Role
from repro.sim import Simulator


def build():
    sim = Simulator()
    net = Network(sim, local_cluster_topology())
    group = ReplicationGroup(
        sim, net, PartitionPlacement(0, ("DC1", "DC2", "DC3"))
    )
    return sim, net, group


def leaders(group):
    return [r for r in group.replicas if r.role is Role.LEADER]


def settle(sim, until):
    sim.run(until=until)


def isolate(sim, net, node, start, end):
    """Drop every message to or from ``node`` from ``start`` to ``end``."""
    duration = end - start
    schedule = FaultSchedule((
        blackhole(start, duration, node.name, "*"),
        blackhole(start, duration, "*", node.name),
    ))
    FaultInjector(sim, net, schedule).attach()


def payloads(replica):
    return [entry.payload for entry in replica.log.snapshot()]


def test_isolated_follower_catches_up_by_back_off_after_heal():
    sim, net, group = build()
    leader = group.leader
    follower = group.replicas[1]
    refusals = []
    handle_response = leader.handle_append_entries_response

    def record(payload, src):
        if not payload.success:
            refusals.append(src)
        handle_response(payload, src)

    leader.handle_append_entries_response = record
    for op in ("a", "b"):
        group.replicate(op)
    settle(sim, 1.0)
    assert payloads(follower) == ["a", "b"]

    isolate(sim, net, follower, 1.0, 4.0)
    settle(sim, 1.0)
    during = [group.replicate(op) for op in ("c", "d", "e")]
    settle(sim, 4.0)
    # The other follower makes a majority: the leader commits without it.
    assert all(future.done for future in during)
    assert payloads(follower) == ["a", "b"]
    assert refusals == []

    settle(sim, 6.0)
    # The entries shipped into the partition were lost, so the first
    # AppendEntries after the heal fails its consistency check, and the
    # leader backs off until the follower's log matches.
    assert follower.name in refusals
    assert payloads(follower) == payloads(leader) == ["a", "b", "c", "d", "e"]
    assert follower.commit_index == leader.commit_index == 5
    assert leader.role is Role.LEADER


def test_isolated_leader_stays_leader_and_commits_after_heal():
    sim, net, group = build()
    settle(sim, 2.0)
    (leader,) = leaders(group)
    isolate(sim, net, leader, 3.0, 8.0)
    settle(sim, 3.0)
    stranded = leader.propose("no-quorum")
    settle(sim, 8.0)
    assert not stranded.done
    assert leader.commit_index == 0
    assert leaders(group) == [leader]

    settle(sim, 10.0)
    assert stranded.value == 1
    assert leaders(group) == [leader]
    for replica in group.replicas:
        assert payloads(replica) == ["no-quorum"]
        assert replica.commit_index == 1


def test_no_commit_possible_without_majority():
    sim, net, group = build()
    settle(sim, 2.0)
    (leader,) = leaders(group)
    isolate(sim, net, leader, 3.0, 8.0)
    settle(sim, 3.0)
    stranded = leader.propose("no-quorum")
    settle(sim, 8.0)
    assert not stranded.done


def test_cluster_survives_repeated_partitions():
    sim, net, group = build()
    settle(sim, 2.0)
    futures = []
    for replica in group.replicas:
        # 4 s isolated, then 4 s healed, with a proposal in each half.
        isolate(sim, net, replica, sim.now, sim.now + 4.0)
        settle(sim, sim.now)
        futures.append(group.replicate(f"isolated-{replica.name}"))
        settle(sim, sim.now + 4.0)
        futures.append(group.replicate(f"healed-{replica.name}"))
        settle(sim, sim.now + 4.0)
    assert leaders(group) == [group.leader]
    assert [future.value for future in futures] == list(range(1, 7))
    reference = payloads(group.leader)
    for replica in group.replicas:
        assert payloads(replica) == reference
        assert replica.commit_index == 6
