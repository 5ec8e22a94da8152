"""Tests for the prepared-set conflict logic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.store import PreparedSet, sets_conflict


def test_write_write_conflicts():
    assert sets_conflict([], ["k"], [], ["k"])


def test_write_read_conflicts_both_directions():
    assert sets_conflict(["k"], [], [], ["k"])
    assert sets_conflict([], ["k"], ["k"], [])


def test_read_read_does_not_conflict():
    assert not sets_conflict(["k"], [], ["k"], [])


def test_disjoint_sets_do_not_conflict():
    assert not sets_conflict(["a"], ["b"], ["c"], ["d"])


def test_prepared_set_add_and_conflict_lookup():
    prepared = PreparedSet()
    prepared.add("t1", reads=["a"], writes=["b"])
    assert prepared.conflicting(reads=["b"], writes=[]) == {"t1"}
    assert prepared.conflicting(reads=[], writes=["a"]) == {"t1"}
    assert prepared.conflicting(reads=["a"], writes=[]) == set()  # read-read
    assert prepared.is_free(reads=["x"], writes=["y"])


def test_remove_clears_indexes():
    prepared = PreparedSet()
    prepared.add("t1", reads=["a"], writes=["b"])
    assert prepared.remove("t1")
    assert prepared.is_free(reads=["b"], writes=["a"])
    assert not prepared.remove("t1")  # second remove is a no-op
    assert len(prepared) == 0


def test_duplicate_prepare_rejected():
    prepared = PreparedSet()
    prepared.add("t1", reads=[], writes=["k"])
    with pytest.raises(ValueError):
        prepared.add("t1", reads=[], writes=["k"])


def test_multiple_conflicting_transactions_all_reported():
    prepared = PreparedSet()
    prepared.add("t1", reads=["k"], writes=[])
    prepared.add("t2", reads=["k"], writes=[])
    assert prepared.conflicting(reads=[], writes=["k"]) == {"t1", "t2"}


@given(
    st.sets(st.integers(0, 8)),
    st.sets(st.integers(0, 8)),
    st.sets(st.integers(0, 8)),
    st.sets(st.integers(0, 8)),
)
def test_conflict_is_symmetric(ra, wa, rb, wb):
    a = sets_conflict(map(str, ra), map(str, wa), map(str, rb), map(str, wb))
    b = sets_conflict(map(str, rb), map(str, wb), map(str, ra), map(str, wa))
    assert a == b


@given(
    st.sets(st.integers(0, 8), min_size=1),
    st.sets(st.integers(0, 8)),
)
def test_prepared_set_agrees_with_sets_conflict(reads, writes):
    prepared = PreparedSet()
    prepared.add("t", map(str, reads), map(str, writes))
    probe_reads, probe_writes = ["3"], ["5"]
    expected = sets_conflict(
        probe_reads, probe_writes, map(str, reads), map(str, writes)
    )
    assert bool(prepared.conflicting(probe_reads, probe_writes)) == expected
