"""Tests for message sizing."""

from repro.net.message import HEADER_BYTES, Message, estimate_size


def test_scalar_sizes():
    assert estimate_size(None) == 1
    assert estimate_size(True) == 1
    assert estimate_size(7) == 8
    assert estimate_size(3.14) == 8
    assert estimate_size("abcd") == 4
    assert estimate_size(b"abcd") == 4


def test_container_sizes_sum_members():
    assert estimate_size(["ab", "cd"]) == 4
    assert estimate_size(("ab", 1)) == 10
    assert estimate_size({"k": "value"}) == 1 + 5


def test_nested_structures():
    payload = {"writes": {"key-1": "v" * 64}, "txn": "t1", "epoch": 0}
    expected = (
        len("writes") + len("key-1") + 64 + len("txn") + 2 + len("epoch") + 8
    )
    assert estimate_size(payload) == expected


def test_opaque_object_flat_cost():
    class Blob:
        pass

    assert estimate_size(Blob()) == 64


def test_opaque_object_self_reported_size():
    class Sized:
        wire_size = 1000

    assert estimate_size(Sized()) == 1000


def test_wire_size_includes_header_and_is_cached():
    message = Message("m", {"a": "xx"}, "src", "dst")
    first = message.wire_size
    assert first == HEADER_BYTES + 1 + 2
    # Cached: same object, same answer, no recompute of a mutated dict.
    message.payload["a"] = "x" * 100
    assert message.wire_size == first


def test_large_payload_sizes_do_not_recurse():
    # A deep structure must not hit the recursion limit (iterative walk).
    deep = value = []
    for _ in range(5000):
        inner = []
        value.append(inner)
        value = inner
    assert estimate_size(deep) == 0
