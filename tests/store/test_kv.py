"""Tests for the versioned KV store."""

from repro.store import KeyValueStore


def test_missing_key_materializes_default():
    store = KeyValueStore()
    v = store.read("user:1")
    assert v.version == 0
    assert v.writer is None
    assert len(v.value) == 64  # paper's 64-byte values


def test_apply_bumps_version_and_records_writer():
    store = KeyValueStore()
    store.read("k")
    v1 = store.apply("k", "new-value", "txn-1")
    assert v1.version == 1
    assert v1.writer == "txn-1"
    assert store.read("k").value == "new-value"


def test_apply_to_untouched_key_starts_at_version_one():
    store = KeyValueStore()
    assert store.apply("fresh", "v", "t").version == 1


def test_apply_writes_batch():
    store = KeyValueStore()
    store.apply_writes({"a": "1", "b": "2"}, "txn-9")
    assert store.read("a").value == "1"
    assert store.read("b").writer == "txn-9"


def test_len_counts_materialized_keys_only():
    store = KeyValueStore()
    assert len(store) == 0
    store.read("a")
    store.apply("b", "x", "t")
    assert len(store) == 2


def test_version_monotonicity():
    store = KeyValueStore()
    versions = [store.apply("k", f"v{i}", f"t{i}").version for i in range(5)]
    assert versions == [1, 2, 3, 4, 5]
