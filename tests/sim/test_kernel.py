"""Tests for the discrete-event kernel."""

import gc

import pytest

from repro.sim import SimulationError, Simulator

from tests.helpers import collector


def test_time_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_runs_callback_at_deadline():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]


def test_events_run_in_deadline_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_deadline_events_run_fifo():
    sim = Simulator()
    order = []
    for label in "abc":
        sim.schedule(1.0, lambda label=label: order.append(label))
    sim.run()
    assert order == ["a", "b", "c"]


def test_nested_scheduling_from_callback():
    sim = Simulator()
    times = []

    def outer():
        times.append(sim.now)
        sim.schedule(0.5, lambda: times.append(sim.now))

    sim.schedule(1.0, outer)
    sim.run()
    assert times == [1.0, 1.5]


def test_run_until_stops_before_later_events_and_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(1))
    sim.schedule(5.0, lambda: seen.append(5))
    sim.run(until=2.0)
    assert seen == [1]
    assert sim.now == 2.0
    sim.run()
    assert seen == [1, 5]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: sim.stop())
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancelled_timer_does_not_fire():
    sim = Simulator()
    seen = []
    timer = sim.schedule(1.0, lambda: seen.append("fired"))
    timer.cancel()
    sim.run()
    assert seen == []
    assert timer.cancelled


def test_cancel_is_idempotent():
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    timer.cancel()
    timer.cancel()
    sim.run()


def test_stop_halts_the_loop():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, sim.stop)
    sim.schedule(2.0, lambda: seen.append("late"))
    sim.run()
    assert seen == []
    assert sim.now == 1.0


def test_a_stopped_run_leaves_the_clock_at_the_stop():
    sim = Simulator()
    seen = []
    sim.post(1.0, sim.stop)
    sim.post(2.0, lambda: seen.append(sim.now))
    sim.run(until=10.0)
    assert sim.now == 1.0
    sim.run(until=10.0)
    assert seen == [2.0]
    assert sim.now == 10.0


def test_zero_delay_event_runs_at_current_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [1.0]


def test_heavy_event_load_maintains_order():
    sim = Simulator()
    seen = []
    # Insert in reverse order; must still fire sorted.
    for i in reversed(range(500)):
        sim.schedule(i * 0.001, lambda i=i: seen.append(i))
    sim.run()
    assert seen == sorted(seen)


@pytest.fixture
def gc_enabled():
    """The cyclic collector on for the test, its state restored after."""
    with collector(enabled=True):
        yield


def _boom():
    raise RuntimeError("boom")


@pytest.mark.parametrize("end", [None, "stop", "raise"])
def test_run_turns_the_collector_back_on(gc_enabled, end):
    sim = Simulator()
    inside = []
    sim.post(1.0, lambda: inside.append(gc.isenabled()))
    sim.post(2.0, {None: lambda: None, "stop": sim.stop, "raise": _boom}[end])
    sim.post(3.0, lambda: inside.append(gc.isenabled()))
    try:
        sim.run()
    except RuntimeError:
        assert end == "raise"
    assert inside == ([False] if end else [False, False])
    assert gc.isenabled()


def test_run_leaves_a_disabled_collector_off():
    with collector(enabled=False):
        sim = Simulator()
        sim.post(1.0, lambda: None)
        sim.run()
        assert not gc.isenabled()


def test_no_collection_starts_inside_run(gc_enabled):
    # Keeping ten thresholds' worth of new containers alive would start
    # several young collections if the collector ran.
    starts = []
    seen_inside = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    kept = []

    def allocate():
        kept.extend([] for _ in range(10 * gc.get_threshold()[0]))

    sim = Simulator()
    sim.post(1.0, allocate)
    sim.post(2.0, lambda: seen_inside.extend(starts))
    gc.collect()
    gc.callbacks.append(record)
    try:
        sim.run()
    finally:
        gc.callbacks.remove(record)
    assert seen_inside == []


def test_a_nested_run_leaves_the_collector_off(gc_enabled):
    sim = Simulator()
    seen = []

    def nested():
        sim.post(0.5, lambda: seen.append(("inner", gc.isenabled())))
        sim.run(until=sim.now + 1.0)
        seen.append(("after inner", gc.isenabled()))

    sim.post(1.0, nested)
    sim.post(3.0, lambda: seen.append(("outer", gc.isenabled())))
    sim.run()
    assert seen == [
        ("inner", False), ("after inner", False), ("outer", False),
    ]
    assert gc.isenabled()
