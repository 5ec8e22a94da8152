"""The replicated log.

Indexes are 1-based, as in the Raft paper; index 0 is the empty-log
sentinel with term 0.  The network delivers every message once, in send
order, and the leader ships each entry once, so a follower only ever
appends at its tail.  :meth:`RaftLog.append_at` checks that and raises
otherwise: a broken delivery rule fails the run instead of being
repaired by truncation.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

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

    def append_at(
        self, prev_index: int, prev_term: int, entries: Sequence[LogEntry]
    ) -> int:
        """Follower-side append; returns the new last index.

        ``prev_index`` must be this log's last index and ``prev_term``
        its term (the AppendEntries consistency check, which in this
        model always holds); anything else raises ``RuntimeError``.
        An empty ``entries`` (a heartbeat) is just the check.
        """
        last = len(self._entries)
        if prev_index != last or self.term_at(last) != prev_term:
            raise RuntimeError(
                f"AppendEntries at ({prev_index}, term {prev_term}) does "
                f"not extend a log ending at ({last}, term "
                f"{self.term_at(last)}): a message was lost or reordered"
            )
        self._entries.extend(entries)
        return len(self._entries)
