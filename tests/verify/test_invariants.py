"""Invariant checkers: pass on healthy runs, catch seeded corruption.

Most tests drive the checkers against small fake deployments whose
state is corrupted in precisely one way; the mutation smoke test runs a
*real* 2PL deployment with a deliberately broken commit-apply path and
proves the 2PC-atomicity checker catches it.
"""

import pytest

from repro.cluster.placement import PartitionPlacement
from repro.faults import FaultSchedule
from repro.net import Network, azure_topology
from repro.obs.trace import Tracer
from repro.raft import ReplicationGroup
from repro.sim import Simulator
from repro.store.kv import KeyValueStore
from repro.systems.twopl.server import TwoPLParticipant
from repro.txn.priority import Priority
from repro.txn.stats import TxnOutcome, TxnRecord
from repro.verify import (
    ExecutionTrace,
    check_all,
    check_atomicity,
    check_monotonicity,
    check_priority,
    check_raft,
    check_replica_consistency,
)
from repro.verify.fuzz import ScenarioSpec, run_scenario


# ----------------------------------------------------------------------
# Fakes


class FakeReplica:
    def __init__(self, name, store):
        self.name = name
        self.store = store


class FakeGroup:
    def __init__(self, replicas, leader=None):
        self.replicas = replicas
        if leader is not None:
            self.leader = leader


class FakeSystem:
    def __init__(self, groups, name="2PL+2PC"):
        self.groups = groups
        self.name = name


def _store(chains):
    """A history-recording store holding the given {key: [writer]} chains."""
    store = KeyValueStore(record_history=True)
    for key, writers in chains.items():
        for writer in writers:
            store.apply(key, f"{writer.rsplit('.', 1)[0]}@{key}", writer)
    return store


def _record(txn_id, committed=True, priority=Priority.LOW, start=0.0, end=1.0,
            abort_reasons=()):
    return TxnRecord(
        txn_id=txn_id,
        priority=priority,
        txn_type="rmw",
        start=start,
        end=end,
        retries=len(abort_reasons),
        outcome=TxnOutcome.COMMITTED if committed else TxnOutcome.FAILED,
        abort_reasons=tuple(abort_reasons),
    )


# ----------------------------------------------------------------------
# 2PC atomicity


def test_atomicity_ok_on_clean_state():
    store = _store({"k": ["t1.0", "t2.1"]})
    system = FakeSystem({0: FakeGroup([FakeReplica("p0", store)])})
    trace = ExecutionTrace()
    trace.record("t1", {}, {"k": "t1@k"})
    trace.record("t2", {"k": "t1@k"}, {"k": "t2@k"})
    records = [_record("t1"), _record("t2")]
    assert check_atomicity(system, records, trace).ok


def test_atomicity_catches_missing_install():
    store = _store({"k": ["t1.0"]})  # t2's write never landed
    system = FakeSystem({0: FakeGroup([FakeReplica("p0", store)])})
    trace = ExecutionTrace()
    trace.record("t2", {}, {"k": "t2@k"})
    report = check_atomicity(system, [_record("t2")], trace)
    assert not report.ok
    assert "0 times" in report.violations[0].detail


def test_atomicity_catches_failed_txn_leaking_writes():
    store = _store({"k": ["dead.3"]})
    system = FakeSystem({0: FakeGroup([FakeReplica("p0", store)])})
    trace = ExecutionTrace()
    trace.record("dead", {}, {"k": "dead@k"})
    report = check_atomicity(system, [_record("dead", committed=False)], trace)
    assert not report.ok
    assert "failed dead" in report.violations[0].detail


def test_atomicity_catches_split_attempt_commit():
    # Key a installed by attempt 0, key b by attempt 1 — 2PC must not
    # mix attempts inside one committed transaction.
    store = _store({"a": ["t1.0"], "b": ["t1.1"]})
    system = FakeSystem({0: FakeGroup([FakeReplica("p0", store)])})
    trace = ExecutionTrace()
    trace.record("t1", {}, {"a": "t1@a", "b": "t1@b"})
    report = check_atomicity(system, [_record("t1")], trace)
    assert not report.ok
    assert "several attempts" in str(report.violations)


# ----------------------------------------------------------------------
# Replica consistency


def test_replica_consistency_accepts_prefix_followers():
    leader = FakeReplica("lead", _store({"k": ["t1.0", "t2.0", "t3.0"]}))
    follower = FakeReplica("foll", _store({"k": ["t1.0", "t2.0"]}))
    system = FakeSystem(
        {0: FakeGroup([leader, follower], leader=leader)}
    )
    assert check_replica_consistency(system).ok


def test_replica_consistency_rejects_diverged_follower():
    leader = FakeReplica("lead", _store({"k": ["t1.0", "t2.0"]}))
    follower = FakeReplica("foll", _store({"k": ["t1.0", "t9.0"]}))
    system = FakeSystem({0: FakeGroup([leader, follower], leader=leader)})
    report = check_replica_consistency(system)
    assert not report.ok
    assert "not a prefix" in report.violations[0].detail


def test_replica_consistency_skips_leaderless_groups():
    a = FakeReplica("a", _store({"k": ["t1.0"]}))
    b = FakeReplica("b", _store({"k": ["t9.0"]}))  # diverged, but TAPIR-style
    system = FakeSystem({0: FakeGroup([a, b])})
    assert check_replica_consistency(system).ok


# ----------------------------------------------------------------------
# Raft


def _raft_system(until=3.0, proposals=5):
    sim = Simulator()
    net = Network(sim, azure_topology())
    group = ReplicationGroup(
        sim,
        net,
        PartitionPlacement(0, ("VA", "WA", "PR")),
    )
    for i in range(proposals):
        sim.schedule(
            0.1 * (i + 1), lambda i=i: group.leader.propose(("op", i))
        )
    sim.run(until=until)
    return FakeSystem({0: group})


def test_raft_invariants_hold_on_healthy_group():
    system = _raft_system()
    leader = system.groups[0].leader
    assert leader.commit_index == 5
    assert check_raft(system).ok


def test_raft_commit_safety_violation_detected():
    system = _raft_system()
    # Corrupt both followers: drop their last entry while the leader
    # still counts it committed.
    group = system.groups[0]
    for replica in group.replicas:
        if replica is not group.leader:
            del replica.log._entries[-1]
            replica.commit_index = min(
                replica.commit_index, replica.log.last_index
            )
            replica.last_applied = min(
                replica.last_applied, replica.commit_index
            )
    report = check_raft(system)
    assert any(v.invariant == "raft-commit-safety" for v in report.violations)


def test_raft_apply_order_violation_detected():
    system = _raft_system()
    leader = system.groups[0].leader
    leader.commit_index = leader.log.last_index + 3
    report = check_raft(system)
    assert any(v.invariant == "raft-apply-order" for v in report.violations)


# ----------------------------------------------------------------------
# Priority ordering


def test_priority_check_flags_upside_down_wound():
    tracer = Tracer()
    tracer.event(
        "priority_abort",
        node="p0",
        txn="low.0",
        by="high.0",
        victim_priority=2,
        winner_priority=0,  # winner does NOT outrank victim
    )
    system = FakeSystem({}, name="Natto-RECSF")
    report = check_priority(system, [], tracer=tracer)
    assert not report.ok


def test_priority_check_flags_preempted_high():
    system = FakeSystem({}, name="Natto-RECSF")
    record = _record(
        "h1", committed=False, priority=Priority.HIGH,
        abort_reasons=("PREEMPTED",),
    )
    report = check_priority(system, [record])
    assert not report.ok
    assert "HIGH" in report.violations[0].detail


def test_priority_check_skipped_for_wound_wait_families():
    # 2PL wounds by age: HIGH being PREEMPTED is legitimate there.
    system = FakeSystem({}, name="2PL+2PC")
    record = _record(
        "h1", committed=False, priority=Priority.HIGH,
        abort_reasons=("PREEMPTED",),
    )
    assert check_priority(system, [record]).ok


# ----------------------------------------------------------------------
# Session monotonicity


def _mono_fixture(second_reads):
    store = _store({"k": ["t1.0", "t2.0"]})
    system = FakeSystem({0: FakeGroup([FakeReplica("p0", store)])})
    trace = ExecutionTrace()
    trace.record("r1", {"k": "t2@k"}, {})
    trace.record("r2", {"k": second_reads}, {})
    records = [
        _record("r1", start=0.0, end=1.0),
        _record("r2", start=2.0, end=3.0),  # strictly after r1
    ]
    sessions = {"client": ["r1", "r2"]}
    return system, records, trace, sessions


def test_monotonic_reads_ok_forward():
    system, records, trace, sessions = _mono_fixture("t2@k")
    assert check_monotonicity(system, records, trace, sessions).ok


def test_monotonic_reads_catches_time_travel():
    system, records, trace, sessions = _mono_fixture("t1@k")  # older version
    report = check_monotonicity(system, records, trace, sessions)
    assert not report.ok
    assert "after" in report.violations[0].detail


def test_monotonic_reads_ignores_overlapping_txns():
    system, records, trace, sessions = _mono_fixture("t1@k")
    records[1] = _record("r2", start=0.5, end=3.0)  # overlaps r1
    assert check_monotonicity(system, records, trace, sessions).ok


# ----------------------------------------------------------------------
# Mutation smoke test (satellite): a deliberately broken commit path in
# a real 2PL deployment must be caught by the 2PC-atomicity checker.


def _broken_on_apply(self, payload, index):
    kind = payload[0]
    if kind == "prepare":
        _, txn, writes = payload
        self.pending_writes[txn] = writes
    elif kind == "commit":
        # BUG: release the transaction's buffered writes without
        # installing them — the commit "succeeds" but the data is gone.
        _, txn = payload
        self.pending_writes.pop(txn, None)


def test_mutation_broken_commit_apply_is_caught(monkeypatch):
    monkeypatch.setattr(TwoPLParticipant, "on_apply", _broken_on_apply)
    outcome = run_scenario(
        ScenarioSpec(system="2PL+2PC", seed=0, schedule=FaultSchedule())
    )
    assert not outcome.ok
    atomicity = [
        v for v in outcome.violations if v.invariant == "atomicity"
    ]
    assert atomicity, f"atomicity checker missed the bug: {outcome.violations}"
    assert any("times" in v.detail for v in atomicity)
