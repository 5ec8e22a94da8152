"""Tests for the 2PL lock table."""

from repro.store import LockMode, LockRequest, LockTable


def req(txn_id, shared=(), exclusive=(), timestamp=0.0, priority=0):
    modes = {k: LockMode.SHARED for k in shared}
    modes.update({k: LockMode.EXCLUSIVE for k in exclusive})
    return LockRequest(txn_id, modes, timestamp, priority)


def test_uncontended_exclusive_grant_is_immediate():
    table = LockTable()
    r = req("t1", exclusive=["a", "b"])
    future = table.request(r)
    assert future.done and future.value is True
    assert r.pending == set()


def test_shared_locks_coexist():
    table = LockTable()
    f1 = table.request(req("t1", shared=["k"], timestamp=1))
    f2 = table.request(req("t2", shared=["k"], timestamp=2))
    assert f1.done and f2.done


def test_exclusive_blocks_second_exclusive():
    table = LockTable()
    f1 = table.request(req("t1", exclusive=["k"], timestamp=1))
    f2 = table.request(req("t2", exclusive=["k"], timestamp=2))
    assert f1.done
    assert not f2.done
    table.release("t1")
    assert f2.done


def test_exclusive_blocks_shared_and_vice_versa():
    table = LockTable()
    table.request(req("writer", exclusive=["k"], timestamp=1))
    f_reader = table.request(req("reader", shared=["k"], timestamp=2))
    assert not f_reader.done
    table.release("writer")
    assert f_reader.done


def test_waiters_granted_in_timestamp_order():
    table = LockTable()
    table.request(req("holder", exclusive=["k"], timestamp=0))
    f_young = table.request(req("young", exclusive=["k"], timestamp=10))
    f_old = table.request(req("old", exclusive=["k"], timestamp=5))
    table.release("holder")
    assert f_old.done
    assert not f_young.done
    table.release("old")
    assert f_young.done


def test_no_barging_past_waiting_writer():
    table = LockTable()
    table.request(req("holder", shared=["k"], timestamp=0))
    f_writer = table.request(req("writer", exclusive=["k"], timestamp=1))
    f_reader = table.request(req("late-reader", shared=["k"], timestamp=2))
    # Reader queued behind the writer must not slip past it, even though
    # it is compatible with the current holder.
    assert not f_writer.done
    assert not f_reader.done
    table.release("holder")
    assert f_writer.done
    assert not f_reader.done


def test_partial_hold_while_waiting():
    table = LockTable()
    table.request(req("t1", exclusive=["b"], timestamp=0))
    r2 = req("t2", exclusive=["a", "b"], timestamp=1)
    f2 = table.request(r2)
    assert not f2.done
    assert r2.granted == {"a"}
    assert table.is_waiting("t2")
    table.release("t1")
    assert f2.done
    assert not table.is_waiting("t2")


def test_on_blocked_fires_with_blockers():
    events = []
    table = LockTable(on_blocked=lambda txn, key, who: events.append((txn, key, who)))
    table.request(req("t1", exclusive=["k"], timestamp=0))
    table.request(req("t2", exclusive=["k"], timestamp=1))
    assert ("t2", "k", {"t1"}) in events


def test_release_removes_waiter_and_releases_partial_holds():
    table = LockTable()
    table.request(req("t1", exclusive=["b"], timestamp=0))
    table.request(req("t2", exclusive=["a", "b"], timestamp=1))
    table.release("t2")
    # "a" is free again.
    f3 = table.request(req("t3", exclusive=["a"], timestamp=2))
    assert f3.done


def test_release_unknown_txn_is_noop():
    table = LockTable()
    table.release("ghost")


def test_duplicate_request_rejected():
    table = LockTable()
    table.request(req("t1", exclusive=["k"]))
    try:
        table.request(req("t1", exclusive=["j"]))
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected ValueError")


def test_wound_wait_scenario_end_to_end():
    """Policy layer simulation: old wounds young, young waits for old."""
    blocked = []
    table = LockTable(on_blocked=lambda *event: blocked.append(event))
    table.request(req("young", exclusive=["k"], timestamp=10))
    f_old = table.request(req("old", exclusive=["k"], timestamp=1))
    # Policy sees old blocked by young and wounds young:
    assert blocked == [("old", "k", {"young"})]
    table.release("young")  # the wound resolves as a release
    assert f_old.done
