"""Fault schedules: plain-data timed fault events.

Every event is a :class:`FaultEvent` — a kind, a start time, a duration
and kind-specific parameters.  Schedules serialize losslessly to JSON
(floats round-trip exactly through :mod:`json`), so a failing fuzz seed
can be replayed from its artifact alone.  :func:`random_schedule` draws
a schedule deterministically from a seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Every fault kind the injector understands, with the parameters each
#: carries in ``FaultEvent.params``.
FAULT_KINDS: Tuple[str, ...] = (
    "region_partition",  # group_a, group_b (datacenter name lists)
    "link_partition",    # dc_a, dc_b
    "loss_burst",        # loss_rate, rto
    "delay_storm",       # factor, extra
    "server_crash",      # node
    "leader_pause",      # node
    "clock_skew",        # node, skew
)

#: Kinds the network consults per message while their window is open.
NETWORK_KINDS = frozenset(
    (
        "region_partition",
        "link_partition",
        "loss_burst",
        "delay_storm",
        "server_crash",
    )
)


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault: active over ``[start, start + duration)``."""

    kind: str
    start: float
    duration: float
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.start < 0.0:
            raise ValueError(f"start must be non-negative, got {self.start}")
        if self.duration <= 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "start": self.start,
            "duration": self.duration,
            "params": dict(self.params),
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "FaultEvent":
        return FaultEvent(
            kind=data["kind"],
            start=float(data["start"]),
            duration=float(data["duration"]),
            params=dict(data.get("params", {})),
        )

    def describe(self) -> str:
        detail = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return (
            f"{self.kind}[{self.start:.3f}s +{self.duration:.3f}s]"
            + (f"({detail})" if detail else "")
        )


# ----------------------------------------------------------------------
# Constructors — one per kind, so call sites read declaratively.


def region_partition(
    start: float,
    duration: float,
    group_a: Sequence[str],
    group_b: Sequence[str],
) -> FaultEvent:
    """Hold all traffic between two sets of datacenters until heal."""
    return FaultEvent(
        "region_partition",
        start,
        duration,
        {"group_a": sorted(group_a), "group_b": sorted(group_b)},
    )


def link_partition(start: float, duration: float, dc_a: str, dc_b: str) -> FaultEvent:
    """Hold traffic on one datacenter pair (both directions)."""
    return FaultEvent("link_partition", start, duration, {"dc_a": dc_a, "dc_b": dc_b})


def loss_burst(
    start: float, duration: float, loss_rate: float, rto: float = 0.1
) -> FaultEvent:
    """Add geometric retransmission latency to every message in window."""
    return FaultEvent(
        "loss_burst", start, duration, {"loss_rate": loss_rate, "rto": rto}
    )


def delay_storm(
    start: float, duration: float, factor: float = 2.0, extra: float = 0.0
) -> FaultEvent:
    """Scale every message delay by ``factor`` and add ``extra`` seconds."""
    return FaultEvent(
        "delay_storm", start, duration, {"factor": factor, "extra": extra}
    )


def server_crash(start: float, duration: float, node: str) -> FaultEvent:
    """Fail-stop a node: traffic held, CPU stalled, until recovery."""
    return FaultEvent("server_crash", start, duration, {"node": node})


def leader_pause(start: float, duration: float, node: str) -> FaultEvent:
    """Stall a (leader) node's CPU and suppress its heartbeats."""
    return FaultEvent("leader_pause", start, duration, {"node": node})


def clock_skew(start: float, duration: float, node: str, skew: float) -> FaultEvent:
    """Add ``skew`` seconds to one node's clock for the window."""
    return FaultEvent("clock_skew", start, duration, {"node": node, "skew": skew})


# ----------------------------------------------------------------------
# Schedules


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, serializable sequence of fault events."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __getitem__(self, index: int) -> FaultEvent:
        return self.events[index]

    @property
    def horizon(self) -> float:
        """Latest event end time (0 for an empty schedule)."""
        return max((event.end for event in self.events), default=0.0)

    def without(self, index: int) -> "FaultSchedule":
        """A copy with the event at ``index`` removed (for shrinking)."""
        return FaultSchedule(
            self.events[:index] + self.events[index + 1 :]
        )

    def to_dict(self) -> Dict[str, Any]:
        return {"events": [event.to_dict() for event in self.events]}

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "FaultSchedule":
        return FaultSchedule(
            tuple(FaultEvent.from_dict(item) for item in data.get("events", []))
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "FaultSchedule":
        return FaultSchedule.from_dict(json.loads(text))

    def describe(self) -> str:
        if not self.events:
            return "(no faults)"
        return "; ".join(event.describe() for event in self.events)


# ----------------------------------------------------------------------
# Random generation


def random_schedule(
    seed: int,
    *,
    horizon: float,
    datacenters: Sequence[str],
    crashable: Sequence[str] = (),
    pausable: Sequence[str] = (),
    skewable: Sequence[str] = (),
    num_events: Optional[int] = None,
    max_events: int = 4,
    min_duration_frac: float = 0.05,
    max_duration_frac: float = 0.25,
) -> FaultSchedule:
    """Draw a fault schedule deterministically from ``seed``.

    The kind pool adapts to what the cluster supports: crashes need
    ``crashable`` targets (followers — Raft has no elections, so a
    leader is irreplaceable), pauses need ``pausable`` targets (leaders),
    skew spikes need ``skewable`` targets.  Windows start inside the
    first 70% of ``horizon`` so faults always overlap live traffic.
    """
    datacenters = sorted(datacenters)
    rng = np.random.default_rng(seed)
    kinds: List[str] = ["loss_burst", "delay_storm"]
    if len(datacenters) >= 2:
        kinds += ["region_partition", "link_partition"]
    if crashable:
        kinds.append("server_crash")
    if pausable:
        kinds.append("leader_pause")
    if skewable:
        kinds.append("clock_skew")
    if num_events is None:
        num_events = int(rng.integers(1, max_events + 1))
    events: List[FaultEvent] = []
    for _ in range(num_events):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        start = float(rng.uniform(0.0, horizon * 0.7))
        duration = float(
            rng.uniform(horizon * min_duration_frac, horizon * max_duration_frac)
        )
        if kind == "region_partition":
            cut = int(rng.integers(1, len(datacenters)))
            picked = rng.choice(len(datacenters), size=cut, replace=False)
            group_a = [datacenters[i] for i in sorted(int(i) for i in picked)]
            group_b = [dc for dc in datacenters if dc not in group_a]
            events.append(region_partition(start, duration, group_a, group_b))
        elif kind == "link_partition":
            pair = rng.choice(len(datacenters), size=2, replace=False)
            events.append(
                link_partition(
                    start,
                    duration,
                    datacenters[int(pair[0])],
                    datacenters[int(pair[1])],
                )
            )
        elif kind == "loss_burst":
            events.append(
                loss_burst(
                    start,
                    duration,
                    loss_rate=float(rng.uniform(0.05, 0.3)),
                    rto=float(rng.uniform(0.02, 0.1)),
                )
            )
        elif kind == "delay_storm":
            events.append(
                delay_storm(
                    start,
                    duration,
                    factor=float(rng.uniform(1.5, 4.0)),
                    extra=float(rng.uniform(0.0, 0.05)),
                )
            )
        elif kind == "server_crash":
            node = crashable[int(rng.integers(0, len(crashable)))]
            events.append(server_crash(start, duration, node))
        elif kind == "leader_pause":
            node = pausable[int(rng.integers(0, len(pausable)))]
            # Keep pauses short relative to the horizon: the leader is
            # the only node that can commit, so a long stall just idles
            # the run without exercising anything new.
            events.append(leader_pause(start, min(duration, horizon * 0.15), node))
        elif kind == "clock_skew":
            node = skewable[int(rng.integers(0, len(skewable)))]
            magnitude = float(rng.uniform(0.005, 0.05))
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            events.append(clock_skew(start, duration, node, sign * magnitude))
    events.sort(key=lambda event: (event.start, event.kind))
    return FaultSchedule(tuple(events))
