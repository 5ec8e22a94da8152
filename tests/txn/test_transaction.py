"""Tests for the 2FI transaction model."""

import pytest

from repro.txn import Priority, TransactionSpec


def spec(**kwargs):
    defaults = dict(
        txn_id="c1-0",
        read_keys=("a", "b"),
        write_keys=("b", "c"),
    )
    defaults.update(kwargs)
    return TransactionSpec(**defaults)


def test_empty_transaction_rejected():
    with pytest.raises(ValueError):
        TransactionSpec("t", (), ())


def test_default_priority_is_low():
    assert spec().priority is Priority.LOW


def test_priority_ordering():
    assert Priority.HIGH > Priority.MEDIUM > Priority.LOW


def test_make_writes_passes_read_results():
    seen = {}

    def writer(reads):
        seen.update(reads)
        return {"b": reads["a"] + "!"}

    s = spec(compute_writes=writer)
    writes = s.make_writes({"a": "va", "b": "vb"})
    assert writes == {"b": "va!"}
    assert seen == {"a": "va", "b": "vb"}


def test_make_writes_may_skip_keys():
    s = spec(compute_writes=lambda reads: {})
    assert s.make_writes({"a": "x", "b": "y"}) == {}


def test_make_writes_none_aborts_voluntarily():
    s = spec(compute_writes=lambda reads: None)
    assert s.make_writes({}) is None


def test_write_outside_declared_set_rejected():
    s = spec(compute_writes=lambda reads: {"not-declared": "v"})
    with pytest.raises(ValueError):
        s.make_writes({"a": "x", "b": "y"})


def test_specs_are_immutable():
    s = spec()
    with pytest.raises(AttributeError):
        s.txn_id = "other"
