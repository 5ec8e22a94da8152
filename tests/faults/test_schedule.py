"""Fault schedules: validation, serialization and seeded generation."""

import json

import pytest

from repro.faults import (
    FaultEvent,
    FaultSchedule,
    clock_skew,
    delay_storm,
    leader_pause,
    link_partition,
    loss_burst,
    random_schedule,
    region_partition,
    server_crash,
)

DCS = ["VA", "WA", "PR", "NSW", "SG"]


def _sample_schedule():
    return FaultSchedule(
        (
            region_partition(1.0, 2.0, ["VA", "WA"], ["PR", "NSW", "SG"]),
            link_partition(2.0, 1.0, "VA", "SG"),
            loss_burst(0.5, 3.0, loss_rate=0.2, rto=0.05),
            delay_storm(4.0, 1.5, factor=3.0, extra=0.01),
            server_crash(5.0, 2.0, "p0-WA"),
            leader_pause(6.0, 0.5, "p0-VA"),
            clock_skew(1.5, 4.0, "p1-PR", 0.02),
        )
    )


def test_event_validation():
    with pytest.raises(ValueError):
        FaultEvent("meteor_strike", 0.0, 1.0)
    # Message drops are no fault kind: every message arrives.
    with pytest.raises(ValueError):
        FaultEvent("blackhole", 0.0, 1.0)
    with pytest.raises(ValueError):
        FaultEvent("loss_burst", -1.0, 1.0)
    with pytest.raises(ValueError):
        FaultEvent("loss_burst", 0.0, 0.0)


def test_event_window():
    event = loss_burst(1.5, 2.5, loss_rate=0.1)
    assert event.end == 4.0
    assert event.describe().startswith("loss_burst[1.500s +2.500s]")


def test_schedule_json_round_trip_is_lossless():
    schedule = _sample_schedule()
    restored = FaultSchedule.from_json(schedule.to_json())
    assert restored == schedule
    # Floats survive exactly (json uses repr round-tripping).
    assert restored[3].params["extra"] == 0.01
    # And the JSON itself is canonical: re-serializing is a fixpoint.
    assert restored.to_json() == schedule.to_json()


def test_schedule_without_removes_one_event():
    schedule = _sample_schedule()
    smaller = schedule.without(2)
    assert len(smaller) == len(schedule) - 1
    assert all(event.kind != "loss_burst" for event in smaller)
    assert schedule[2].kind == "loss_burst"  # original untouched


def test_schedule_horizon():
    assert FaultSchedule().horizon == 0.0
    assert _sample_schedule().horizon == 7.0  # server_crash(5.0, 2.0)


def test_random_schedule_is_deterministic():
    kwargs = dict(
        horizon=10.0,
        datacenters=DCS,
        crashable=["p0-WA", "p1-PR"],
        pausable=["p0-VA"],
        skewable=["p0-VA", "p0-WA"],
    )
    a = random_schedule(42, **kwargs)
    b = random_schedule(42, **kwargs)
    assert a == b
    assert a.to_json() == b.to_json()
    assert random_schedule(43, **kwargs) != a


def test_random_schedule_respects_capabilities():
    # No crashable/pausable/skewable targets: only network-level kinds.
    schedule = random_schedule(
        0, horizon=10.0, datacenters=DCS, num_events=50
    )
    kinds = {event.kind for event in schedule}
    assert kinds <= {
        "loss_burst",
        "delay_storm",
        "region_partition",
        "link_partition",
    }


def test_random_schedule_windows_inside_horizon():
    schedule = random_schedule(
        7, horizon=10.0, datacenters=DCS, num_events=30
    )
    for event in schedule:
        assert 0.0 <= event.start <= 7.0  # first 70% of the horizon
        assert event.duration > 0.0


def test_random_partitions_are_proper_cuts():
    schedule = random_schedule(3, horizon=10.0, datacenters=DCS, num_events=40)
    for event in schedule:
        if event.kind == "region_partition":
            group_a = set(event.params["group_a"])
            group_b = set(event.params["group_b"])
            assert group_a and group_b
            assert not group_a & group_b
            assert group_a | group_b == set(DCS)
        elif event.kind == "link_partition":
            assert event.params["dc_a"] != event.params["dc_b"]


def test_schedule_dict_round_trip_via_plain_json():
    # The artifact path serializes through json.dumps on a plain dict.
    schedule = _sample_schedule()
    restored = FaultSchedule.from_dict(
        json.loads(json.dumps(schedule.to_dict()))
    )
    assert restored == schedule
