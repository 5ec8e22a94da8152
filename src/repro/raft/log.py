"""The replicated log.

Indexes are 1-based, as in the Raft paper; index 0 is the empty-log
sentinel with term 0.  The log enforces the Log Matching property
locally: entries are only appended after a successful
``(prev_index, prev_term)`` consistency check, and a conflicting suffix
is truncated before new entries are written.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.net.message import estimate_size


class LogEntry:
    """One log slot: the term it was created in and an opaque payload.

    ``wire_size`` is the entry's share of an AppendEntries, computed once
    at construction: 8 bytes for the term plus the payload's
    :func:`~repro.net.message.estimate_size`, exactly what a
    ``(term, payload)`` tuple adds.  AppendEntries carry the leader's
    entry objects themselves, and followers append them as received, so
    one entry is shared by every replica's log and every message that
    ships it.  That is safe because neither the entry nor its payload is
    mutated after :meth:`RaftReplica.propose
    <repro.raft.node.RaftReplica.propose>` creates it.
    """

    __slots__ = ("term", "payload", "wire_size")

    def __init__(self, term: int, payload: Any) -> None:
        self.term = term
        self.payload = payload
        self.wire_size = 8 + estimate_size(payload)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not LogEntry:
            return NotImplemented
        return self.term == other.term and self.payload == other.payload

    def __hash__(self) -> int:
        return hash((self.term, self.payload))

    def __repr__(self) -> str:
        return f"LogEntry(term={self.term!r}, payload={self.payload!r})"


class RaftLog:
    """An in-memory Raft log."""

    def __init__(self) -> None:
        self._entries: List[LogEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def last_index(self) -> int:
        return len(self._entries)

    def term_at(self, index: int) -> Optional[int]:
        """Term of the entry at ``index`` (0 for the sentinel), or None."""
        if index == 0:
            return 0
        if 1 <= index <= len(self._entries):
            return self._entries[index - 1].term
        return None

    def entry_at(self, index: int) -> LogEntry:
        return self._entries[index - 1]

    def append(self, entry: LogEntry) -> int:
        """Leader-side append; returns the new entry's index."""
        self._entries.append(entry)
        return len(self._entries)

    def entries_from(self, index: int) -> List[LogEntry]:
        """Entries at ``index`` and beyond (for AppendEntries payloads)."""
        return self._entries[index - 1:]

    def matches(self, prev_index: int, prev_term: int) -> bool:
        """The AppendEntries consistency check."""
        return self.term_at(prev_index) == prev_term

    def append_from_leader(
        self, prev_index: int, prev_term: int, entries: List[LogEntry]
    ) -> bool:
        """Follower-side append after the consistency check.

        Truncates any conflicting suffix (same index, different term)
        before writing, per Raft's conflict rule.  Returns False if the
        consistency check fails.
        """
        if not self.matches(prev_index, prev_term):
            return False
        for offset, entry in enumerate(entries):
            index = prev_index + 1 + offset
            existing_term = self.term_at(index)
            if existing_term is None:
                self._entries.append(entry)
            elif existing_term != entry.term:
                del self._entries[index - 1:]
                self._entries.append(entry)
            # else: duplicate of an entry we already have; keep it.
        return True

    def snapshot(self) -> Tuple[LogEntry, ...]:
        """Immutable copy, for tests and invariant checks."""
        return tuple(self._entries)
