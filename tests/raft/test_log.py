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


def test_append_at_extends_the_tail():
    log = RaftLog()
    assert log.append_at(0, 0, [LogEntry(1, "a"), LogEntry(1, "b")]) == 2
    assert log.append_at(2, 1, [LogEntry(1, "c")]) == 3
    assert [e.payload for e in log.entries_from(1)] == ["a", "b", "c"]


def test_append_at_with_no_entries_is_the_consistency_check():
    log = RaftLog()
    assert log.append_at(0, 0, ()) == 0
    log.append(LogEntry(1, "a"))
    assert log.append_at(1, 1, ()) == 1
    with pytest.raises(RuntimeError):
        log.append_at(1, 2, ())
    with pytest.raises(RuntimeError):
        log.append_at(0, 0, ())


def test_append_at_past_the_tail_raises():
    log = RaftLog()
    with pytest.raises(RuntimeError, match="lost or reordered"):
        log.append_at(3, 1, [LogEntry(1, "x")])
    assert log.last_index == 0


def test_append_at_inside_the_log_raises_instead_of_truncating():
    log = RaftLog()
    log.append_at(0, 0, [LogEntry(1, "a"), LogEntry(1, "b")])
    with pytest.raises(RuntimeError):
        log.append_at(1, 1, [LogEntry(2, "c"), LogEntry(2, "d")])
    assert [e.payload for e in log.entries_from(1)] == ["a", "b"]


def test_append_at_with_the_wrong_prev_term_raises():
    log = RaftLog()
    log.append_at(0, 0, [LogEntry(1, "a")])
    with pytest.raises(RuntimeError):
        log.append_at(1, 2, [LogEntry(2, "b")])
    assert log.last_index == 1


def test_a_retransmitted_append_raises():
    log = RaftLog()
    entries = [LogEntry(1, "a"), LogEntry(1, "b")]
    log.append_at(0, 0, entries)
    with pytest.raises(RuntimeError):
        log.append_at(0, 0, entries)
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
    logged = [e.term for e in log.entries_from(1)]
    assert logged == sorted(logged)


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
