"""Kernel lanes: FIFO events of which only the head sits in the heap.

A lane must fire its entries in exactly the order, and at exactly the
times, that the same posts would fire as plain heap entries, and the
kernel's accounting must count the lane's backlog.
"""

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


class PlainPosts(Simulator):
    """The reference: a lane post becomes a plain heap entry of its own."""

    def post_at(self, when, callback, lane=None):
        if lane is None:
            return super().post_at(when, callback)
        return super().post_at(when, partial(lane._fire, callback))


def _log_fire(sim, log, name):
    return lambda item: log.append((name, sim.now, item))


def test_lane_fires_in_key_order_with_one_heap_entry():
    sim = Simulator()
    log = []
    lane = sim.lane(_log_fire(sim, log, "lane"))
    for i, when in enumerate([1.0, 1.0, 2.0, 3.5]):
        sim.post_at(when, i, lane)
    sim.post_at(1.0, lambda: log.append(("plain", sim.now, None)))
    assert sim.heap_size == 2  # the lane's head and the plain event
    assert sim.pending_events == 5
    assert sim.events_fired == 0
    sim.run()
    assert log == [
        ("lane", 1.0, 0),
        ("lane", 1.0, 1),
        ("plain", 1.0, None),
        ("lane", 2.0, 2),
        ("lane", 3.5, 3),
    ]
    assert sim.events_fired == 5
    assert sim.pending_events == 0 and sim.heap_size == 0


def test_post_earlier_than_the_tail_is_not_reordered():
    # A deadline before the lane's tail (float rounding on a tiny service
    # time) goes to the heap as a plain event and fires in key order.
    sim = Simulator()
    log = []
    lane = sim.lane(_log_fire(sim, log, "lane"))
    sim.post_at(1.0, "a", lane)
    sim.post_at(3.0, "b", lane)
    sim.post_at(2.0, "early", lane)
    sim.post_at(3.0, "c", lane)
    assert len(lane._entries) == 3
    assert sim.heap_size == 2 and sim.pending_events == 4
    sim.run()
    assert [(t, item) for _, t, item in log] == [
        (1.0, "a"), (2.0, "early"), (3.0, "b"), (3.0, "c"),
    ]
    assert sim.events_fired == 4


def test_compaction_keeps_lane_heads_and_order():
    sim = Simulator()
    log = []
    lane = sim.lane(_log_fire(sim, log, "lane"))
    for i in range(20):
        sim.post_at(0.5 * i, i, lane)
    timers = [
        sim.schedule(0.25 + 0.5 * i, lambda i=i: log.append(("t", sim.now, i)))
        for i in range(100)
    ]
    # Cancel the odd timers, then more: compaction runs with the lane's
    # head in the heap.
    for timer in timers[1::2] + timers[40:]:
        timer.cancel()
    assert sim.heap_size < 60
    assert sim.pending_events == 20 + 20
    sim.run()
    times = [t for _, t, _ in log]
    assert times == sorted(times)
    assert [item for name, _, item in log if name == "lane"] == list(range(20))
    assert sim.events_fired == 40


def test_slices_and_stop_cut_through_a_backlog():
    sim = Simulator()
    log = []

    def fire(item):
        log.append((sim.now, item))
        if item == 6:
            sim.stop()
        if item < 3:
            # Due before the lane's tail (5.5): plain heap events.
            sim.post_at(sim.now + 2.0, item + 100, lane)

    lane = sim.lane(fire)
    for i in range(10):
        sim.post_at(1.0 + 0.5 * i, i, lane)
    sim.run(until=2.25)
    assert [item for _, item in log] == [0, 1, 2]
    assert sim.now == 2.25
    assert sim.events_fired == 3 and sim.pending_events == 10
    assert sim.heap_size == 4  # the lane's head and three plain events
    sim.run()
    assert log[-1] == (4.0, 6)  # stopped by entry 6
    assert sim.now == 4.0
    assert sim.events_fired + sim.pending_events == 13
    sim.run()
    assert [item for _, item in log] == [
        0, 1, 2, 3, 4, 100, 5, 101, 6, 102, 7, 8, 9,
    ]
    assert sim.events_fired == 13 and sim.pending_events == 0


def _keys(draw_steps):
    """Non-decreasing lane deadlines on a grid that makes ties likely."""
    when, out = 0.0, []
    for step in draw_steps:
        when += step
        out.append(when)
    return out


@given(
    lanes=st.lists(
        st.lists(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]), max_size=12),
        min_size=1,
        max_size=3,
    ),
    plain=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.25, 3.0]),
                   max_size=12),
    early=st.lists(st.integers(min_value=0, max_value=11), max_size=3),
    cuts=st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.75, 2.5]), max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_lanes_fire_as_plain_posts_would(lanes, plain, early, cuts):
    """Posts interleaved over lanes and plain events, some of them due
    before their lane's tail, fire as if each were its own heap entry."""

    def scenario(sim):
        log = []
        made = [
            sim.lane(_log_fire(sim, log, f"lane{k}")) for k in range(len(lanes))
        ]
        posts = []
        for k, steps in enumerate(lanes):
            for i, when in enumerate(_keys(steps)):
                if i in early:
                    when = max(0.0, when - 0.75)
                posts.append((i, k, when))
        for i, when in enumerate(plain):
            posts.append((i, None, when))
        # Interleave the posts by their index, as sends from many links.
        for i, k, when in sorted(posts, key=lambda p: (p[0], p[1] is None)):
            if k is None:
                sim.post_at(when, lambda i=i: log.append(("plain", sim.now, i)))
            else:
                sim.post_at(when, (k, i), made[k])
        counts = []
        for cut in sorted(cuts):
            sim.run(until=cut)
            counts.append((sim.events_fired, sim.pending_events, sim.now))
        sim.run()
        counts.append((sim.events_fired, sim.pending_events, sim.now))
        return log, counts

    assert scenario(Simulator()) == scenario(PlainPosts())
