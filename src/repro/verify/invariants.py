"""Protocol invariants checked on live deployments after a run.

The serializability checker (:mod:`repro.verify.history`) validates the
committed *history*; the checkers here validate the *mechanisms* that
produced it — atomic commitment, replication, priority ordering and
session ordering — directly against server state and the trace stream.
They are what fault injection is checked with: a partition or crash may
slow transactions down arbitrarily, but none of these invariants may
break.

Checkers return :class:`Violation` lists instead of raising, so a fuzz
scenario can collect every broken invariant in one pass and a failure
artifact can describe all of them.

Family applicability
--------------------
* **Atomicity** applies to every system: a transaction that failed its
  retry budget must have installed no writes anywhere; a committed one
  must be installed exactly once per written key, by a single attempt.
* **Replica consistency** (follower chains are a prefix of the leader's
  chain) applies to the Raft-replicated families.  TAPIR is leaderless
  — inconsistent replicas are part of its design and repaired on read —
  so the checker skips groups without a ``leader``.
* **Raft invariants** (log matching, commit safety, applied ≤ committed
  ≤ appended) apply wherever replicas carry a Raft log.
* **Priority ordering** applies to Natto: a priority abort whose winner
  does not strictly outrank its victim, or a HIGH transaction dying of
  preemption (nothing outranks HIGH), is a protocol bug.  2PL's
  wound-wait also reports ``PREEMPTED`` but wounds by *age*, so the
  check would false-positive there and is gated on the Natto family.
* **Monotonic session reads** applies everywhere: two committed,
  non-overlapping transactions from the same client must observe
  versions of a shared key in version-chain order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.obs.abort import AbortReason
from repro.txn.priority import Priority
from repro.verify.history import INITIAL, ExecutionTrace, writer_of_value


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough context to debug it."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


@dataclass
class InvariantReport:
    """Outcome of one checker pass over one run."""

    checks_run: List[str] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def extend(self, other: "InvariantReport") -> "InvariantReport":
        self.checks_run.extend(other.checks_run)
        self.violations.extend(other.violations)
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "checks_run": list(self.checks_run),
            "violations": [
                {"invariant": v.invariant, "detail": v.detail}
                for v in self.violations
            ],
        }

    def summary(self) -> str:
        if self.ok:
            return f"ok ({len(self.checks_run)} checks)"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  {violation}" for violation in self.violations]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Store plumbing


def _logical_id(writer: str) -> str:
    """Strip the ``.<attempt>`` suffix from a recorded writer id."""
    if "." in writer:
        return writer.rsplit(".", 1)[0]
    return writer


def partition_stores(system) -> Dict[int, Any]:
    """Authoritative store per partition: the leader's, else replica 0's."""
    stores = {}
    for pid, group in system.groups.items():
        leader = getattr(group, "leader", None)
        stores[pid] = (leader or group.replicas[0]).store
    return stores


def _raw_chain(stores: Mapping[int, Any], key: str) -> List[str]:
    """Writer *attempt* ids for ``key`` at its owning partition."""
    for store in stores.values():
        if key in store.history:
            return [v.writer for v in store.history[key]]
    return []


# ----------------------------------------------------------------------
# 2PC atomicity


def check_atomicity(system, records, trace: ExecutionTrace) -> InvariantReport:
    """All-or-nothing commitment, across every partition a txn touched."""
    report = InvariantReport(checks_run=["atomicity"])
    stores = partition_stores(system)
    # Index every installed write once: logical txn -> key -> attempt ids.
    installed: Dict[str, Dict[str, List[str]]] = {}
    for store in stores.values():
        for key, versions in store.history.items():
            for version in versions:
                if version.writer is None:
                    continue
                installed.setdefault(
                    _logical_id(version.writer), {}
                ).setdefault(key, []).append(version.writer)
    for record in records:
        txn_id = record.txn_id
        execution = trace.executions.get(txn_id)
        if record.committed:
            if execution is None:
                continue  # not a traced (tagged) transaction
            writes = execution[1]
            if not writes:
                continue
            per_key = installed.get(txn_id, {})
            attempts = set()
            for key in writes:
                writers = per_key.get(key, [])
                if len(writers) != 1:
                    report.violations.append(
                        Violation(
                            "atomicity",
                            f"committed {txn_id} installed {key!r} "
                            f"{len(writers)} times (expected exactly 1)",
                        )
                    )
                attempts.update(writers)
            if len(attempts) > 1:
                report.violations.append(
                    Violation(
                        "atomicity",
                        f"committed {txn_id} installed writes from several "
                        f"attempts: {sorted(attempts)}",
                    )
                )
        else:
            leaked = installed.get(txn_id)
            if leaked:
                report.violations.append(
                    Violation(
                        "atomicity",
                        f"failed {txn_id} still installed writes to "
                        f"{sorted(leaked)}",
                    )
                )
    return report


# ----------------------------------------------------------------------
# Replication


def check_replica_consistency(system) -> InvariantReport:
    """Follower version chains must be prefixes of the leader's chain."""
    report = InvariantReport(checks_run=["replica-consistency"])
    for pid, group in system.groups.items():
        leader = getattr(group, "leader", None)
        if leader is None:
            continue  # leaderless family (TAPIR): reordering is by design
        for replica in group.replicas:
            if replica is leader:
                continue
            for key, versions in replica.store.history.items():
                follower_chain = [v.writer for v in versions]
                leader_chain = [
                    v.writer for v in leader.store.history.get(key, [])
                ]
                if follower_chain != leader_chain[: len(follower_chain)]:
                    report.violations.append(
                        Violation(
                            "replica-consistency",
                            f"partition {pid}: {replica.name}'s chain for "
                            f"{key!r} {follower_chain} is not a prefix of "
                            f"{leader.name}'s {leader_chain}",
                        )
                    )
    return report


def _raft_groups(system) -> Iterable[Any]:
    for group in system.groups.values():
        replicas = getattr(group, "replicas", ())
        if replicas and hasattr(replicas[0], "log"):
            yield group
    for group in getattr(system, "coordinators", {}).values():
        replicas = getattr(group, "replicas", ())
        if replicas and hasattr(replicas[0], "log"):
            yield group


def check_raft(system) -> InvariantReport:
    """Log matching, commit safety and apply-order sanity per group.

    Entries travel by reference inside the simulation (followers append
    the leader's own ``LogEntry`` objects, payload included), so log
    matching degenerates to a payload identity check — stronger than
    the paper's statement and free to verify.
    """
    report = InvariantReport(checks_run=["raft"])
    for group in _raft_groups(system):
        replicas = list(group.replicas)
        majority = len(replicas) // 2 + 1
        for replica in replicas:
            if not (
                replica.last_applied
                <= replica.commit_index
                <= replica.log.last_index
            ):
                report.violations.append(
                    Violation(
                        "raft-apply-order",
                        f"{replica.name}: applied {replica.last_applied} / "
                        f"committed {replica.commit_index} / appended "
                        f"{replica.log.last_index} out of order",
                    )
                )
        # Log matching: same index + same term => same entry.
        for i, a in enumerate(replicas):
            for b in replicas[i + 1 :]:
                upto = min(a.log.last_index, b.log.last_index)
                for index in range(1, upto + 1):
                    if a.log.term_at(index) == b.log.term_at(index) and (
                        a.log.entry_at(index).payload
                        is not b.log.entry_at(index).payload
                    ):
                        report.violations.append(
                            Violation(
                                "raft-log-matching",
                                f"{a.name} and {b.name} disagree at "
                                f"index {index} despite equal terms",
                            )
                        )
                        break
        # Commit safety: every committed entry is on a majority.
        leader = getattr(group, "leader", None) or replicas[0]
        for index in range(1, leader.commit_index + 1):
            term = leader.log.term_at(index)
            holders = sum(
                1
                for replica in replicas
                if replica.log.last_index >= index
                and replica.log.term_at(index) == term
            )
            if holders < majority:
                report.violations.append(
                    Violation(
                        "raft-commit-safety",
                        f"{leader.name} committed index {index} but only "
                        f"{holders}/{len(replicas)} replicas hold it",
                    )
                )
                break
    return report


# ----------------------------------------------------------------------
# Natto priority ordering


def _is_natto(system) -> bool:
    return type(system).__name__ == "Natto" or getattr(
        system, "name", ""
    ).startswith("Natto")


def check_priority(system, records, tracer=None) -> InvariantReport:
    """Priority aborts must wound strictly downward (Natto only)."""
    report = InvariantReport(checks_run=["priority-ordering"])
    if not _is_natto(system):
        return report
    if tracer is not None:
        for event in tracer.events:
            if event.name != "priority_abort":
                continue
            winner = event.attrs.get("winner_priority")
            victim = event.attrs.get("victim_priority")
            if winner is None or victim is None or winner <= victim:
                report.violations.append(
                    Violation(
                        "priority-ordering",
                        f"priority abort on {event.node} at t={event.time:.3f}: "
                        f"winner priority {winner} does not outrank victim "
                        f"{victim} ({event.txn} wounded by "
                        f"{event.attrs.get('by')})",
                    )
                )
    preempted = AbortReason.PREEMPTED.value
    for record in records:
        if record.priority is Priority.HIGH and preempted in record.abort_reasons:
            report.violations.append(
                Violation(
                    "priority-ordering",
                    f"HIGH-priority {record.txn_id} was preempted — nothing "
                    "outranks HIGH in Natto",
                )
            )
    return report


# ----------------------------------------------------------------------
# Client-session monotonic reads


def check_monotonicity(
    system,
    records,
    trace: ExecutionTrace,
    sessions: Mapping[str, Sequence[str]],
) -> InvariantReport:
    """Non-overlapping committed txns of one client read forward in time.

    ``sessions`` maps a client name to the transaction ids it submitted
    (the client driver is synchronous per session, but retries can make
    wall-clock windows overlap — only pairs where one ended before the
    other started are ordered).
    """
    report = InvariantReport(checks_run=["session-monotonic-reads"])
    stores = partition_stores(system)
    by_id = {record.txn_id: record for record in records}
    chain_cache: Dict[str, Dict[str, int]] = {}

    def position(key: str, writer: str) -> Optional[int]:
        positions = chain_cache.get(key)
        if positions is None:
            positions = {
                _logical_id(w): index
                for index, w in enumerate(_raw_chain(stores, key))
            }
            chain_cache[key] = positions
        return positions.get(writer)

    for client, txn_ids in sessions.items():
        committed = [
            by_id[txn_id]
            for txn_id in txn_ids
            if txn_id in by_id and by_id[txn_id].committed
        ]
        committed.sort(key=lambda record: record.start)
        for i, first in enumerate(committed):
            first_exec = trace.executions.get(first.txn_id)
            if first_exec is None:
                continue
            for second in committed[i + 1 :]:
                if first.end > second.start:
                    continue  # overlapping: no order requirement
                second_exec = trace.executions.get(second.txn_id)
                if second_exec is None:
                    continue
                for key, value in first_exec[0].items():
                    later_value = second_exec[0].get(key)
                    if later_value is None:
                        continue
                    earlier_writer = writer_of_value(value, key)
                    later_writer = writer_of_value(later_value, key)
                    if later_writer == INITIAL and earlier_writer != INITIAL:
                        report.violations.append(
                            Violation(
                                "session-monotonic-reads",
                                f"{client}: {second.txn_id} read initial "
                                f"{key!r} after {first.txn_id} saw "
                                f"{earlier_writer}'s write",
                            )
                        )
                        continue
                    if earlier_writer == INITIAL:
                        continue
                    earlier_pos = position(key, earlier_writer)
                    later_pos = position(key, later_writer)
                    if (
                        earlier_pos is not None
                        and later_pos is not None
                        and later_pos < earlier_pos
                    ):
                        report.violations.append(
                            Violation(
                                "session-monotonic-reads",
                                f"{client}: {second.txn_id} read {key!r} "
                                f"from {later_writer} (version {later_pos}) "
                                f"after {first.txn_id} read {earlier_writer} "
                                f"(version {earlier_pos})",
                            )
                        )
    return report


# ----------------------------------------------------------------------
# Aggregation


def check_all(
    system,
    records,
    trace: ExecutionTrace,
    sessions: Optional[Mapping[str, Sequence[str]]] = None,
    tracer=None,
) -> InvariantReport:
    """Run every applicable checker; collect all violations."""
    report = InvariantReport()
    report.extend(check_atomicity(system, records, trace))
    report.extend(check_replica_consistency(system))
    report.extend(check_raft(system))
    report.extend(check_priority(system, records, tracer=tracer))
    if sessions:
        report.extend(check_monotonicity(system, records, trace, sessions))
    return report
