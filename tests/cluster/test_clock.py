"""Tests for skewed clocks."""

import numpy as np

from repro.cluster import Clock, ClockConfig
from repro.sim import Simulator


def test_zero_offset_clock_tracks_sim_time():
    sim = Simulator()
    clock = Clock(sim, ClockConfig(max_offset=0.0))
    sim.schedule(3.0, sim.stop)
    sim.run()
    assert clock.now() == sim.now == 3.0


def test_offset_is_bounded():
    sim = Simulator()
    for seed in range(20):
        clock = Clock(
            sim,
            ClockConfig(max_offset=0.002),
            np.random.default_rng(seed),
        )
        assert abs(clock.offset) <= 0.002


def test_sync_step_bounds_drifting_clock():
    """A clock whose offset has wandered past ``sync_error`` is back
    inside it after one sync step, and stays there."""
    sim = Simulator()
    clock = Clock(
        sim,
        ClockConfig(max_offset=0.01, sync_interval=1.0, sync_error=0.0005),
        np.random.default_rng(0),
    )
    assert abs(clock.offset) > 0.0005  # starts outside the sync bound
    sim.run(until=1.5)  # one sync step, at 1 s
    assert abs(clock.offset) <= 0.0005
    for until in range(2, 20):
        sim.run(until=until + 0.5)
        assert abs(clock.offset) <= 0.0005


def test_until_converts_clock_deadline_to_sim_delay():
    sim = Simulator()
    clock = Clock(sim, ClockConfig(max_offset=0.0))
    assert clock.until(5.0) == 5.0
    assert clock.until(-1.0) == 0.0  # past deadlines clamp to zero


def test_until_accounts_for_offset():
    sim = Simulator()
    clock = Clock(sim, ClockConfig(max_offset=0.0))
    clock._offset = 0.25  # reading is ahead of true time
    assert abs(clock.until(5.0) - 4.75) < 1e-12


def test_two_clocks_disagree_but_relative_skew_is_stable():
    sim = Simulator()
    a = Clock(sim, ClockConfig(max_offset=0.01), np.random.default_rng(1))
    b = Clock(sim, ClockConfig(max_offset=0.01), np.random.default_rng(2))
    skew_at_0 = a.now() - b.now()
    sim.schedule(10.0, sim.stop)
    sim.run()
    assert abs((a.now() - b.now()) - skew_at_0) < 1e-12


def test_fault_skew_shifts_readings_additively():
    sim = Simulator()
    clock = Clock(sim, ClockConfig(max_offset=0.0))
    baseline = clock.now()
    clock.fault_skew += 0.5
    assert abs(clock.now() - (baseline + 0.5)) < 1e-12
    clock.fault_skew -= 0.5
    assert clock.now() == baseline  # exact: zero skew restores bit-identity
