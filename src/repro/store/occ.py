"""Conflict detection for fixed read/write key sets.

Carousel's read-and-prepare uses OCC over the transaction's pre-declared
key sets: a new transaction conflicts with a prepared one iff one of them
writes a key the other reads or writes.  (The paper's prose for Natto's
high-priority lock check says a lock is unavailable if any prepared
transaction "accesses" the key; we use read/write semantics — read-read
does not conflict — which matches standard OCC and Carousel's behaviour.
This choice is recorded in DESIGN.md.)

:class:`PreparedSet` tracks currently prepared transactions with per-key
indexes so conflict checks are O(keys), not O(prepared transactions).
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple


def sets_conflict(
    reads_a: Iterable[str],
    writes_a: Iterable[str],
    reads_b: Iterable[str],
    writes_b: Iterable[str],
) -> bool:
    """Do two transactions' fixed key sets conflict (write-read/write-write)?"""
    writes_a = set(writes_a)
    writes_b = set(writes_b)
    if writes_a & writes_b:
        return True
    if writes_a & set(reads_b):
        return True
    if writes_b & set(reads_a):
        return True
    return False


class PreparedSet:
    """Prepared transactions on one partition, with conflict lookup."""

    def __init__(self) -> None:
        self._prepared: Dict[str, Tuple[Set[str], Set[str]]] = {}
        self._readers: Dict[str, Set[str]] = {}
        self._writers: Dict[str, Set[str]] = {}

    def __contains__(self, txn_id: str) -> bool:
        return txn_id in self._prepared

    def __len__(self) -> int:
        return len(self._prepared)

    def conflicting(
        self, reads: Iterable[str], writes: Iterable[str]
    ) -> Set[str]:
        """Ids of prepared transactions conflicting with (reads, writes)."""
        reads = set(reads)
        writes = set(writes)
        conflicts: Set[str] = set()
        for key in writes:
            conflicts |= self._readers.get(key, set())
            conflicts |= self._writers.get(key, set())
        for key in reads:
            conflicts |= self._writers.get(key, set())
        return conflicts

    def is_free(self, reads: Iterable[str], writes: Iterable[str]) -> bool:
        """True iff no prepared transaction conflicts with these sets."""
        return not self.conflicting(reads, writes)

    def add(self, txn_id: str, reads: Iterable[str], writes: Iterable[str]) -> None:
        """Mark a transaction prepared.  Caller checks conflicts first."""
        if txn_id in self._prepared:
            raise ValueError(f"{txn_id} is already prepared")
        reads = set(reads)
        writes = set(writes)
        self._prepared[txn_id] = (reads, writes)
        for key in reads:
            self._readers.setdefault(key, set()).add(txn_id)
        for key in writes:
            self._writers.setdefault(key, set()).add(txn_id)

    def remove(self, txn_id: str) -> bool:
        """Unprepare (commit applied or aborted); returns whether present."""
        sets = self._prepared.pop(txn_id, None)
        if sets is None:
            return False
        reads, writes = sets
        for key in reads:
            readers = self._readers.get(key)
            if readers is not None:
                readers.discard(txn_id)
                if not readers:
                    del self._readers[key]
        for key in writes:
            writers = self._writers.get(key)
            if writers is not None:
                writers.discard(txn_id)
                if not writers:
                    del self._writers[key]
        return True
