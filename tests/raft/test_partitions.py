"""Raft under network partitions (fault injection).

The paper's experiments run failure-free, but the Raft substrate is a
real consensus implementation; these tests exercise the failure
behaviour the experiments rely on *not* needing: leader isolation,
re-election on the majority side, step-down and log repair on heal.

A partition is a fault schedule that blackholes every message to and
from the isolated node.  The schedule is attached before the simulation
reaches its start: attached at the current instant, its window opens
only at the next ``sim.run``, and a proposal made in between escapes it.
"""

import numpy as np

from repro.cluster.placement import PartitionPlacement
from repro.faults import FaultInjector, FaultSchedule, blackhole
from repro.net import Network, local_cluster_topology
from repro.raft import RaftConfig, ReplicationGroup, Role
from repro.sim import Simulator


def build(seed=0):
    sim = Simulator()
    net = Network(sim, local_cluster_topology())
    group = ReplicationGroup(
        sim,
        net,
        PartitionPlacement(0, ("DC1", "DC2", "DC3")),
        config=RaftConfig(heartbeat_interval=0.02, election_timeout=0.15),
        rng=np.random.default_rng(seed),
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


def test_majority_side_elects_new_leader_when_leader_isolated():
    sim, net, group = build()
    settle(sim, 2.0)
    (old_leader,) = leaders(group)
    others = [r for r in group.replicas if r is not old_leader]

    isolate(sim, net, old_leader, 2.0, 6.0)
    settle(sim, 6.0)
    majority_leaders = [r for r in others if r.role is Role.LEADER]
    assert len(majority_leaders) == 1
    assert majority_leaders[0].current_term > old_leader.current_term


def test_isolated_leader_steps_down_on_heal():
    sim, net, group = build()
    settle(sim, 2.0)
    (old_leader,) = leaders(group)
    isolate(sim, net, old_leader, 2.0, 6.0)
    settle(sim, 10.0)
    assert old_leader.role is not Role.LEADER
    assert len(leaders(group)) == 1


def test_uncommitted_minority_entries_are_discarded_on_heal():
    sim, net, group = build()
    settle(sim, 2.0)
    (old_leader,) = leaders(group)
    others = [r for r in group.replicas if r is not old_leader]

    isolate(sim, net, old_leader, 3.0, 9.0)
    # Commit one entry cluster-wide first.
    future = old_leader.propose("committed-before-partition")
    settle(sim, 3.0)
    assert future.done

    # Old leader accepts a proposal it can never commit.
    orphan = old_leader.propose("orphaned")
    settle(sim, 7.0)
    assert not orphan.done

    # Majority side elects a new leader and commits its own entry.
    (new_leader,) = [r for r in others if r.role is Role.LEADER]
    replacement = new_leader.propose("committed-during-partition")
    settle(sim, 9.0)
    assert replacement.done

    settle(sim, 15.0)
    # Log repair: every replica converges to the new leader's log; the
    # orphaned entry is gone.
    reference = [e.payload for e in new_leader.log.snapshot()]
    assert "orphaned" not in reference
    assert "committed-during-partition" in reference
    for replica in group.replicas:
        assert [e.payload for e in replica.log.snapshot()] == reference


def test_proposal_resolves_only_if_its_own_entry_commits():
    sim, net, group = build()
    settle(sim, 2.0)
    (old_leader,) = leaders(group)
    others = [r for r in group.replicas if r is not old_leader]

    isolate(sim, net, old_leader, 3.0, 9.0)
    committed = old_leader.propose("committed-before-partition")
    committed_index = old_leader.log.last_index
    settle(sim, 3.0)
    orphan = old_leader.propose("orphaned")
    orphan_index = old_leader.log.last_index
    settle(sim, 7.0)
    (new_leader,) = [r for r in others if r.role is Role.LEADER]
    new_leader.propose("committed-during-partition")

    settle(sim, 15.0)
    assert committed.value == committed_index
    # The healed old leader committed past the orphan's index, but
    # another term's entry sits there now.
    assert old_leader.commit_index >= orphan_index
    assert old_leader.log.entry_at(orphan_index).payload != "orphaned"
    assert isinstance(orphan.exception, RuntimeError)
    assert old_leader._commit_futures == {}


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
    sim, net, group = build(seed=3)
    settle(sim, 2.0)
    for round_number in range(3):
        (leader,) = leaders(group)
        isolate(sim, net, leader, sim.now, sim.now + 4.0)
        settle(sim, sim.now + 8.0)  # 4 s isolated, then 4 s healed
    assert len(leaders(group)) == 1
    # And the healed cluster still commits.
    (leader,) = leaders(group)
    future = leader.propose("after-the-storm")
    settle(sim, sim.now + 3.0)
    assert future.done
