"""Cancellation bookkeeping: live-event counts, heap compaction, and
``Simulator.events_fired``, which the kernel derives from them (the
sequence number less the heap length and the cancelled entries removed).
"""

import pytest

from repro.sim import Simulator


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    keep = [sim.schedule(float(i + 1), lambda: None) for i in range(3)]
    drop = [sim.schedule(float(i + 10), lambda: None) for i in range(2)]
    assert sim.pending_events == 5
    drop[0].cancel()
    assert sim.pending_events == 4
    assert keep  # silence unused-variable linters


def test_cancel_is_idempotent():
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    timer.cancel()
    timer.cancel()
    assert sim.pending_events == 1


def test_cancelled_callbacks_never_fire():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("a"))
    timer = sim.schedule(2.0, lambda: fired.append("b"))
    sim.schedule(3.0, lambda: fired.append("c"))
    timer.cancel()
    sim.run()
    assert fired == ["a", "c"]


def test_heap_compacts_when_cancelled_dominate():
    sim = Simulator()
    timers = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
    assert sim.heap_size == 100
    # Cancel until cancelled entries outnumber live ones; the heap must
    # shrink rather than accumulate dead weight.  (Compaction triggers
    # as soon as cancelled entries dominate — at the 51st cancel here —
    # so the raw heap never holds a cancelled majority.)
    for timer in timers[:60]:
        timer.cancel()
    assert sim.pending_events == 40
    assert sim.heap_size < 60
    assert sim.heap_size - sim.pending_events <= sim.pending_events


def test_compaction_preserves_firing_order():
    sim = Simulator()
    order = []
    timers = {}
    for i in range(50):
        timers[i] = sim.schedule(
            float(i + 1), lambda i=i: order.append(i)
        )
    # Cancel most of the even ones to force a compaction mid-schedule.
    cancelled = [i for i in range(0, 50, 2)] + [1, 3, 5]
    for i in cancelled:
        timers[i].cancel()
    sim.run()
    expected = [i for i in range(50) if i not in set(cancelled)]
    assert order == expected


def test_cancel_after_fire_keeps_counter_sane():
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    sim.run()
    # Firing removed it from the heap; a late cancel must not make the
    # live-event count go negative.
    timer.cancel()
    assert sim.pending_events == 0
    assert sim.heap_size == 0


def test_cancel_from_callback_before_deadline():
    sim = Simulator()
    fired = []
    victim = sim.schedule(2.0, lambda: fired.append("victim"))
    sim.schedule(1.0, lambda: victim.cancel())
    sim.schedule(3.0, lambda: fired.append("late"))
    sim.run()
    assert fired == ["late"]


def test_determinism_with_heavy_cancellation():
    def run_once():
        sim = Simulator()
        order = []
        timers = []
        for i in range(200):
            timers.append(
                sim.schedule(float(i % 7) + 0.1, lambda i=i: order.append(i))
            )
        for i in range(0, 200, 3):
            timers[i].cancel()
        sim.run()
        return order

    assert run_once() == run_once()


def test_run_until_with_cancelled_head():
    sim = Simulator()
    fired = []
    head = sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(2.0, lambda: fired.append(2))
    head.cancel()
    sim.run(until=5.0)
    assert fired == [2]
    assert sim.now == 5.0


def test_compaction_during_run_keeps_one_heap():
    # A callback compacts the heap run() is looping over; an event
    # posted afterwards must fire, and each survivor exactly once.
    sim = Simulator()
    fired = []
    timers = [
        sim.schedule(2.0 + i, lambda i=i: fired.append(i)) for i in range(100)
    ]

    def cancel_most():
        for timer in timers[:60]:
            timer.cancel()
        sim.post(0.5, lambda: fired.append("posted"))

    sim.schedule(1.0, cancel_most)
    sim.run()
    assert fired == ["posted"] + list(range(60, 100))
    assert sim.heap_size == 0


def _counting_sim():
    """A simulator, a maker of counted callbacks, and a check."""
    sim = Simulator()
    ran = []

    def counted(action=lambda: None):
        def callback():
            ran.append(sim.now)
            action()

        return callback

    def check():
        assert sim.events_fired == len(ran)

    return sim, counted, check


def test_events_fired_matches_callbacks_across_slices():
    sim, counted, check = _counting_sim()
    sim.schedule(0.5, counted()).cancel()
    early = sim.schedule(0.2, counted())
    for i in range(30):
        sim.post(0.1 * (i + 1), counted())
        sim.post_at(0.15 * (i + 1), counted())
    # At t=4 a callback cancels 60 of these 80 timers, which compacts
    # the heap (>= 64 entries, more than half cancelled) mid-run.
    doomed = [sim.schedule(5.0 + 0.01 * i, counted()) for i in range(80)]

    def cancel_most():
        before = sim.heap_size
        for timer in doomed[:60]:
            timer.cancel()
        assert sim.heap_size < before  # cancel is lazy; compaction shrinks

    sim.schedule(4.0, counted(cancel_most))
    sim.schedule_at(7.0, counted(sim.stop))
    sim.schedule(8.0, counted())
    # A series every 0.5 s up to t=9: each firing re-arms the next.
    series = []

    def rearm():
        if sim.now + 0.5 <= 9.0:
            series.append(sim.schedule(0.5, counted(rearm)))

    rearm()

    sim.run(until=1.0)
    check()
    early.cancel()  # after it fired: not a removed cancelled entry
    sim.run(until=4.5)
    check()
    sim.run()  # stopped by the t=7 callback
    assert sim.now == 7.0
    check()
    series[-1].cancel()
    sim.run(until=20.0)
    check()
    assert sim.pending_events == 0


def test_compaction_before_run_is_not_counted_as_fired():
    sim, counted, check = _counting_sim()
    timers = [sim.schedule(1.0 + i, counted()) for i in range(100)]
    for timer in timers[:60]:
        timer.cancel()
    assert sim.heap_size < 100 and sim.events_fired == 0
    sim.run(until=80.0)
    check()
    sim.run()
    check()
    assert sim.events_fired == 40


def test_counter_is_published_when_a_callback_raises():
    sim, counted, check = _counting_sim()

    def boom():
        raise RuntimeError("boom")

    sim.post(1.0, counted())
    sim.post(2.0, counted(boom))
    sim.post(3.0, counted())
    with pytest.raises(RuntimeError):
        sim.run()
    check()
    sim.run()
    check()
    assert sim.events_fired == 3
