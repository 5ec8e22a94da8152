"""Raft under network partitions and crashes (fault injection).

The paper's experiments run failure-free, and the leader is fixed: no
partition deposes it.  Partitions and crashes hold messages until they
heal, as a retrying transport would, so every message still arrives
once and in send order.  These tests exercise what a fault can still do
to a group: stall commits while the leader has no majority, and leave a
follower behind until the entries held for it arrive at the heal.

The schedule is attached before the simulation reaches its start:
attached at the current instant, its window opens only at the next
``sim.run``, and a proposal made in between escapes it.
"""

from repro.cluster.placement import PartitionPlacement
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    region_partition,
    server_crash,
)
from repro.net import Network, local_cluster_topology
from repro.raft import ReplicationGroup, Role
from repro.sim import Simulator

DATACENTERS = ("DC1", "DC2", "DC3")


def build():
    sim = Simulator()
    net = Network(sim, local_cluster_topology())
    group = ReplicationGroup(sim, net, PartitionPlacement(0, DATACENTERS))
    return sim, net, group


def leaders(group):
    return [r for r in group.replicas if r.role is Role.LEADER]


def settle(sim, until):
    sim.run(until=until)


def isolate(sim, net, node, start, end):
    """Hold every message between ``node``'s datacenter and the others
    from ``start`` to ``end``."""
    others = [dc for dc in DATACENTERS if dc != node.datacenter]
    schedule = FaultSchedule(
        (region_partition(start, end - start, [node.datacenter], others),)
    )
    FaultInjector(sim, net, schedule).attach()


def payloads(replica):
    return [entry.payload for entry in replica.log.entries_from(1)]


def test_crashed_follower_ends_with_the_leaders_log_after_recovery():
    sim, net, group = build()
    leader = group.leader
    follower = group.replicas[1]
    for op in ("a", "b"):
        leader.propose(op)
    settle(sim, 1.0)
    assert payloads(follower) == ["a", "b"]

    FaultInjector(
        sim, net, FaultSchedule((server_crash(1.0, 3.0, follower.name),))
    ).attach()
    settle(sim, 1.0)
    during = [leader.propose(op) for op in ("c", "d", "e")]
    settle(sim, 3.9)
    # The other follower makes a majority: the leader commits without it.
    assert all(future.done for future in during)
    assert payloads(follower) == ["a", "b"]

    settle(sim, 6.0)
    # The entries held for the follower arrive at recovery, in order,
    # and extend its log at the tail.
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
    settle(sim, 7.9)
    # The followers have not seen the entry: it is held until the heal.
    for replica in group.replicas:
        if replica is not leader:
            assert payloads(replica) == []
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
        futures.append(group.leader.propose(f"isolated-{replica.name}"))
        settle(sim, sim.now + 4.0)
        futures.append(group.leader.propose(f"healed-{replica.name}"))
        settle(sim, sim.now + 4.0)
    assert leaders(group) == [group.leader]
    assert [future.value for future in futures] == list(range(1, 7))
    reference = payloads(group.leader)
    for replica in group.replicas:
        assert payloads(replica) == reference
        assert replica.commit_index == 6
