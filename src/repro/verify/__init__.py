"""Correctness verification of committed histories.

Every transaction system in this repository claims serializability;
:mod:`repro.verify.history` checks it on real executions: clients tag
their writes with unique values, stores record per-key version chains,
and the checker builds the standard dependency graph (write-write,
write-read, read-write edges) and verifies it is acyclic — i.e. the
committed history is conflict-serializable — plus a set of sanity
invariants (every committed write landed exactly once, every read saw a
real version).

Used heavily by ``tests/verify`` against all six systems under forced
contention, including Natto's ECSF/CP fast paths.
"""

from repro.verify.fingerprint import (
    fingerprint_records,
    fingerprint_result,
)
from repro.verify.history import (
    ExecutionTrace,
    SerializabilityChecker,
    SerializationViolation,
    enable_history,
    tagged_rmw_spec,
)
from repro.verify.invariants import (
    InvariantReport,
    Violation,
    check_all,
    check_atomicity,
    check_monotonicity,
    check_priority,
    check_raft,
    check_replica_consistency,
    partition_stores,
)

__all__ = [
    "ExecutionTrace",
    "InvariantReport",
    "SerializabilityChecker",
    "SerializationViolation",
    "Violation",
    "check_all",
    "check_atomicity",
    "check_monotonicity",
    "check_priority",
    "check_raft",
    "check_replica_consistency",
    "enable_history",
    "fingerprint_records",
    "fingerprint_result",
    "partition_stores",
    "tagged_rmw_spec",
]
