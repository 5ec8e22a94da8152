"""Tests for the Raft log."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.message import estimate_size
from repro.net.payload import AppendEntries
from repro.raft import LogEntry, RaftLog


def test_empty_log_sentinel():
    log = RaftLog()
    assert log.last_index == 0
    assert log.term_at(0) == 0
    assert log.term_at(1) is None


def test_append_assigns_sequential_indexes():
    log = RaftLog()
    assert log.append(LogEntry(1, "a")) == 1
    assert log.append(LogEntry(1, "b")) == 2
    assert log.last_index == 2
    assert log.entry_at(2).payload == "b"


def test_matches_consistency_check():
    log = RaftLog()
    log.append(LogEntry(1, "a"))
    assert log.matches(0, 0)
    assert log.matches(1, 1)
    assert not log.matches(1, 2)
    assert not log.matches(2, 1)


def test_append_from_leader_success():
    log = RaftLog()
    ok = log.append_from_leader(0, 0, [LogEntry(1, "a"), LogEntry(1, "b")])
    assert ok
    assert log.last_index == 2


def test_append_from_leader_rejects_gap():
    log = RaftLog()
    assert not log.append_from_leader(3, 1, [LogEntry(1, "x")])
    assert log.last_index == 0


def test_conflicting_suffix_is_truncated():
    log = RaftLog()
    log.append_from_leader(0, 0, [LogEntry(1, "a"), LogEntry(1, "b")])
    # New leader in term 2 overwrites index 2.
    ok = log.append_from_leader(1, 1, [LogEntry(2, "c"), LogEntry(2, "d")])
    assert ok
    assert [e.payload for e in log.snapshot()] == ["a", "c", "d"]
    assert [e.term for e in log.snapshot()] == [1, 2, 2]


def test_duplicate_entries_are_idempotent():
    log = RaftLog()
    entries = [LogEntry(1, "a"), LogEntry(1, "b")]
    log.append_from_leader(0, 0, entries)
    log.append_from_leader(0, 0, entries)  # retransmission
    assert log.last_index == 2


def test_entries_from_returns_suffix():
    log = RaftLog()
    for p in "abc":
        log.append(LogEntry(1, p))
    assert [e.payload for e in log.entries_from(2)] == ["b", "c"]
    assert log.entries_from(4) == []


@given(st.lists(st.integers(min_value=1, max_value=5), max_size=30))
def test_terms_are_monotonic_after_leader_appends(terms):
    """Appending entries with non-decreasing terms keeps the log sorted."""
    log = RaftLog()
    current = 0
    for term in terms:
        current = max(current, term)
        log.append(LogEntry(current, None))
    snapshot = [e.term for e in log.snapshot()]
    assert snapshot == sorted(snapshot)


#: Entry payloads of every shape ``estimate_size`` distinguishes.
PAYLOADS = [
    "w:key-9",
    ("prepare", "t1.0", ["key-1", "key-2"], 3),
    {"op": "w", "key": "key-9", "ts": 2.5},
    None,
    ("commit", ("t1.0", 2), {"key-1": ["v", None, True, {"n": 7}]}),
    7,
    False,
]


@pytest.mark.parametrize("payload", PAYLOADS)
def test_entry_wire_size_is_its_tuple_share(payload):
    entry = LogEntry(3, payload)
    assert entry.wire_size == 8 + estimate_size(payload)
    assert estimate_size([entry]) == estimate_size([(3, payload)])


def test_append_entries_of_entry_objects_sizes_like_tuples():
    """The ``ENTRIES`` rule sums the entries' own sizes: the estimate of
    the dict form, and of that dict with ``(term, payload)`` tuples."""
    entries = [LogEntry(3, p) for p in PAYLOADS]
    request = AppendEntries(3, "raft-0", 7, 2, entries, 6)
    assert request.wire_size == estimate_size(request.as_dict())
    tuples = {**request.as_dict(), "entries": [(3, p) for p in PAYLOADS]}
    assert request.wire_size == estimate_size(tuples)


def test_entries_compare_by_term_and_payload():
    assert LogEntry(1, ("w", "k")) == LogEntry(1, ("w", "k"))
    assert LogEntry(1, "a") != LogEntry(2, "a")
    assert LogEntry(1, "a") != LogEntry(1, "b")
    assert hash(LogEntry(1, "a")) == hash(LogEntry(1, "a"))
