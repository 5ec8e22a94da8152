"""Unit tests: the checker must catch hand-crafted violations."""

import pytest

from repro.store.kv import KeyValueStore
from repro.verify import (
    ExecutionTrace,
    SerializabilityChecker,
    SerializationViolation,
)
from repro.verify.history import INITIAL, find_cycle, writer_of_value


def make_store():
    store = KeyValueStore()
    store.record_history = True
    return store


def test_writer_of_value_parses_tags():
    assert writer_of_value("t1@k", "k") == "t1"
    assert writer_of_value("init:k" + "0" * 50, "k") == INITIAL


def test_clean_serial_history_passes():
    store = make_store()
    trace = ExecutionTrace()
    # t1 reads initial, writes; t2 reads t1's value, writes.
    store.apply("k", "t1@k", "t1.0")
    trace.record("t1", {"k": "init:k"}, {"k": "t1@k"})
    store.apply("k", "t2@k", "t2.0")
    trace.record("t2", {"k": "t1@k"}, {"k": "t2@k"})
    graph = SerializabilityChecker({"p": store}, trace, ["t1", "t2"]).check()
    assert "t2" in graph["t1"]


def test_lost_update_detected():
    store = make_store()
    trace = ExecutionTrace()
    # t1 claims to have committed a write that never landed.
    trace.record("t1", {"k": "init:k"}, {"k": "t1@k"})
    with pytest.raises(SerializationViolation):
        SerializabilityChecker({"p": store}, trace, ["t1"]).check()


def test_double_apply_detected():
    store = make_store()
    trace = ExecutionTrace()
    store.apply("k", "t1@k", "t1.0")
    store.apply("k", "t1@k", "t1.1")  # applied twice!
    trace.record("t1", {"k": "init:k"}, {"k": "t1@k"})
    with pytest.raises(SerializationViolation):
        SerializabilityChecker({"p": store}, trace, ["t1"]).check()


def test_phantom_read_detected():
    store = make_store()
    trace = ExecutionTrace()
    store.apply("k", "t1@k", "t1.0")
    trace.record("t1", {"k": "init:k"}, {"k": "t1@k"})
    # t2 read a value from a writer that never committed to k.
    store.apply("k", "t2@k", "t2.0")
    trace.record("t2", {"k": "ghost@k"}, {"k": "t2@k"})
    with pytest.raises(SerializationViolation):
        SerializabilityChecker({"p": store}, trace, ["t1", "t2"]).check()


def test_write_skew_style_cycle_detected():
    """Classic non-serializable interleaving: t1 and t2 each read the
    other's pre-state and both write — a rw/rw cycle."""
    store_a = make_store()
    store_b = make_store()
    trace = ExecutionTrace()
    store_a.apply("a", "t1@a", "t1.0")
    store_b.apply("b", "t2@b", "t2.0")
    # t1 read b's initial value (before t2's write): rw t1 -> t2.
    trace.record("t1", {"b": "init:b"}, {"a": "t1@a"})
    # t2 read a's initial value (before t1's write): rw t2 -> t1.
    trace.record("t2", {"a": "init:a"}, {"b": "t2@b"})
    with pytest.raises(SerializationViolation):
        SerializabilityChecker(
            {"a": store_a, "b": store_b}, trace, ["t1", "t2"]
        ).check()


def test_stale_read_cycle_detected():
    store = make_store()
    trace = ExecutionTrace()
    store.apply("k", "t1@k", "t1.0")
    store.apply("k", "t2@k", "t2.0")
    trace.record("t1", {"k": "init:k"}, {"k": "t1@k"})
    # t2 committed after t1 in the chain but claims it read the initial
    # version — an rw edge t2 -> t1 against the ww edge t1 -> t2.
    trace.record("t2", {"k": "init:k"}, {"k": "t2@k"})
    with pytest.raises(SerializationViolation):
        SerializabilityChecker({"p": store}, trace, ["t1", "t2"]).check()


def test_attempt_suffixes_are_normalized():
    store = make_store()
    trace = ExecutionTrace()
    store.apply("k", "t1@k", "t1.3")  # committed on the fourth attempt
    trace.record("t1", {"k": "init:k"}, {"k": "t1@k"})
    SerializabilityChecker({"p": store}, trace, ["t1"]).check()


def test_reads_of_own_writes_do_not_self_loop():
    store = make_store()
    trace = ExecutionTrace()
    store.apply("k", "t1@k", "t1.0")
    trace.record("t1", {"k": "init:k"}, {"k": "t1@k"})
    graph = SerializabilityChecker({"p": store}, trace, ["t1"]).check()
    assert all(u not in successors for u, successors in graph.items())


# ----------------------------------------------------------------------
# The cycle search on hand-built successor maps.


def test_two_cycle_is_found():
    graph = {"a": {"b": ("ww", "k")}, "b": {"a": ("rw", "k")}}
    assert find_cycle(graph) == [("a", "b", "ww", "k"), ("b", "a", "rw", "k")]


def test_acyclic_diamond_has_no_cycle():
    graph = {
        "a": {"b": ("ww", "x"), "c": ("wr", "y")},
        "b": {"d": ("rw", "x")},
        "c": {"d": ("ww", "y")},
        "d": {},
    }
    assert find_cycle(graph) is None


def test_cycle_behind_a_finished_branch_is_found():
    # The search finishes the acyclic branch a -> b first, then must
    # still find the cycle c -> d -> c that is reachable from a.
    graph = {
        "a": {"b": ("ww", "k"), "c": ("ww", "k")},
        "b": {},
        "c": {"d": ("wr", "k")},
        "d": {"c": ("rw", "k")},
    }
    assert find_cycle(graph) == [("c", "d", "wr", "k"), ("d", "c", "rw", "k")]


def test_long_chain_needs_no_recursion():
    n = 10_000
    graph = {f"t{i}": {f"t{i + 1}": ("ww", "k")} for i in range(n - 1)}
    graph[f"t{n - 1}"] = {}
    assert find_cycle(graph) is None
    graph[f"t{n - 1}"] = {"t0": ("rw", "k")}
    cycle = find_cycle(graph)
    assert len(cycle) == n
    assert cycle[0] == ("t0", "t1", "ww", "k")
    assert cycle[-1] == (f"t{n - 1}", "t0", "rw", "k")


def test_three_cycle_violation_names_its_edges_in_order():
    """t1 -ww-> t2 on a, t2 -wr-> t3 on b, t3 -rw-> t1 on c."""
    store = make_store()
    trace = ExecutionTrace()
    store.apply("a", "t1@a", "t1.0")
    store.apply("c", "t1@c", "t1.0")
    store.apply("a", "t2@a", "t2.0")
    store.apply("b", "t2@b", "t2.0")
    trace.record("t1", {}, {"a": "t1@a", "c": "t1@c"})
    trace.record("t2", {}, {"a": "t2@a", "b": "t2@b"})
    # t3 read t2's b but c's initial version, which t1 overwrote.
    trace.record("t3", {"b": "t2@b", "c": "init:c"}, {})
    checker = SerializabilityChecker({"p": store}, trace, ["t1", "t2", "t3"])
    with pytest.raises(SerializationViolation) as caught:
        checker.check()
    assert str(caught.value) == (
        "dependency cycle in committed history: "
        "t1 -ww('a')-> t2, t2 -wr('b')-> t3, t3 -rw('c')-> t1"
    )


def test_graph_has_every_committed_txn_and_labelled_edges():
    store = make_store()
    trace = ExecutionTrace()
    store.apply("k", "t1@k", "t1.0")
    store.apply("k", "t2@k", "t2.0")
    trace.record("t1", {"k": "init:k"}, {"k": "t1@k"})
    trace.record("t2", {"k": "t1@k"}, {"k": "t2@k"})
    # t3 read t1's version, which t2 overwrote; idle committed nothing.
    trace.record("t3", {"k": "t1@k"}, {})
    graph = SerializabilityChecker(
        {"p": store}, trace, ["t1", "t2", "t3", "idle"]
    ).check()
    assert graph == {
        # wr replaces the ww label of the same pair, as the last edge
        # added between two transactions wins.
        "t1": {"t2": ("wr", "k"), "t3": ("wr", "k")},
        "t2": {},
        "t3": {"t2": ("rw", "k")},
        "idle": {},
    }
