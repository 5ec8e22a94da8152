"""Tests for named random streams."""

from repro.sim import RandomStreams


def test_same_seed_same_stream_reproduces():
    a = RandomStreams(7).stream("workload")
    b = RandomStreams(7).stream("workload")
    assert list(a.integers(0, 1000, 10)) == list(b.integers(0, 1000, 10))


def test_different_names_give_independent_streams():
    streams = RandomStreams(7)
    a = list(streams.stream("workload").integers(0, 10**9, 8))
    b = list(streams.stream("network").integers(0, 10**9, 8))
    assert a != b


def test_stream_instance_is_cached():
    streams = RandomStreams(1)
    assert streams.stream("x") is streams.stream("x")


def test_consuming_one_stream_does_not_shift_another():
    base = RandomStreams(3)
    expected = list(base.stream("b").integers(0, 10**9, 5))

    other = RandomStreams(3)
    other.stream("a").integers(0, 10**9, 100)  # heavy use of stream a
    assert list(other.stream("b").integers(0, 10**9, 5)) == expected


def test_root_seed_changes_every_stream():
    for name in ("w", "net.delay", "clock.p0-VA"):
        assert list(RandomStreams(3).stream(name).integers(0, 10**9, 5)) != (
            list(RandomStreams(4).stream(name).integers(0, 10**9, 5))
        )
