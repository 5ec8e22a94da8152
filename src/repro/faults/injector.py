"""Binds a :class:`FaultSchedule` to a live cluster.

The injector schedules each event's begin/end transitions on the
simulator and maintains the per-message network-fault state the
:class:`repro.net.network.Network` consults while at least one
network-affecting window is open (``Network.set_faults``).  Every
transition is appended to a deterministic, JSON-line event log;
:meth:`FaultInjector.fingerprint` digests it so replays can be verified
byte-for-byte.

Target resolution goes through the network's node registry, so the
injector works with every system family unchanged: crash/pause/skew
events name nodes, partitions name datacenters.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.faults.schedule import NETWORK_KINDS, FaultEvent, FaultSchedule
from repro.net.network import Network
from repro.sim import Simulator


class FaultInjector:
    """Drives one fault schedule against one cluster, deterministically."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        schedule: FaultSchedule,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.network = network
        self.schedule = schedule
        # Exclusive stream: loss-burst retransmission draws never touch
        # the cluster's own streams, so adding/removing fault events
        # cannot perturb workload or delay-model sampling.
        self._rng = np.random.default_rng(np.random.SeedSequence((seed, 0xFA17)))
        #: Consulted by Network._dispatch before calling route(); stays
        #: False whenever no network-affecting window is open.
        self.active = False
        self._net_open = 0
        # Open-window state, each entry tagged with its event index so
        # overlapping windows of the same kind close independently.
        self._holds: List[Tuple[int, Tuple[Any, ...]]] = []
        self._bursts: List[Tuple[int, float, float]] = []
        self._storms: List[Tuple[int, float, float]] = []
        # Pause depth per node, so overlapping pauses on one node only
        # resume heartbeats when the last window closes.
        self._paused: Dict[str, int] = {}
        self.log: List[Dict[str, Any]] = []
        self._attached = False

    # ------------------------------------------------------------------
    # Lifecycle

    def attach(self) -> "FaultInjector":
        """Register with the network and schedule every transition."""
        if self._attached:
            raise RuntimeError("injector already attached")
        self._attached = True
        self.network.set_faults(self)
        for index, event in enumerate(self.schedule):
            self.sim.post_at(event.start, partial(self._begin, index, event))
            self.sim.post_at(event.end, partial(self._end, index, event))
        return self

    # ------------------------------------------------------------------
    # Event log

    def _record(self, phase: str, index: int, event: FaultEvent) -> None:
        self.log.append(
            {
                "t": float(self.sim.now),
                "phase": phase,
                "event": index,
                "kind": event.kind,
                "params": dict(event.params),
            }
        )

    def log_lines(self) -> List[str]:
        """The event log as canonical JSON lines."""
        return [json.dumps(entry, sort_keys=True) for entry in self.log]

    def fingerprint(self) -> str:
        """sha256 digest of the event log — identical across replays."""
        digest = hashlib.sha256()
        for line in self.log_lines():
            digest.update(line.encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Transitions

    def _begin(self, index: int, event: FaultEvent) -> None:
        self._record("begin", index, event)
        kind = event.kind
        params = event.params
        if kind == "region_partition":
            self._holds.append(
                (
                    index,
                    (
                        "dc",
                        frozenset(params["group_a"]),
                        frozenset(params["group_b"]),
                        event.end,
                    ),
                )
            )
        elif kind == "link_partition":
            self._holds.append(
                (index, ("link", params["dc_a"], params["dc_b"], event.end))
            )
        elif kind == "loss_burst":
            self._bursts.append((index, params["loss_rate"], params["rto"]))
        elif kind == "delay_storm":
            self._storms.append((index, params["factor"], params["extra"]))
        elif kind == "server_crash":
            node = self.network.node(params["node"])
            self._holds.append((index, ("node", node.name, event.end)))
            # Fail-stop without durability loss: the CPU cursor jumps to
            # the recovery time, so queued and held work drains after.
            node.service.stall_until(event.end)
        elif kind == "leader_pause":
            node = self.network.node(params["node"])
            node.service.stall_until(event.end)
            self._paused[node.name] = self._paused.get(node.name, 0) + 1
            pause = getattr(node, "pause_heartbeats", None)
            if pause is not None:
                pause()
        elif kind == "clock_skew":
            node = self.network.node(params["node"])
            node.clock.fault_skew += params["skew"]
        if kind in NETWORK_KINDS:
            self._net_open += 1
            self.active = True

    def _end(self, index: int, event: FaultEvent) -> None:
        self._record("end", index, event)
        kind = event.kind
        if kind in ("region_partition", "link_partition", "server_crash"):
            self._holds = [h for h in self._holds if h[0] != index]
        elif kind == "loss_burst":
            self._bursts = [b for b in self._bursts if b[0] != index]
        elif kind == "delay_storm":
            self._storms = [s for s in self._storms if s[0] != index]
        elif kind == "leader_pause":
            node = self.network.node(event.params["node"])
            depth = self._paused.get(node.name, 1) - 1
            self._paused[node.name] = depth
            if depth == 0:
                resume = getattr(node, "resume_heartbeats", None)
                if resume is not None:
                    resume()
        elif kind == "clock_skew":
            node = self.network.node(event.params["node"])
            node.clock.fault_skew -= event.params["skew"]
        if kind in NETWORK_KINDS:
            self._net_open -= 1
            if self._net_open == 0:
                self.active = False

    # ------------------------------------------------------------------
    # Per-message consultation (called by Network._dispatch while active)

    def route(
        self,
        src: str,
        dst: str,
        src_dc: str,
        dst_dc: str,
        delay: float,
    ) -> Tuple[float, float]:
        """Adjust one message's delay: returns ``(delay, arrival_floor)``.

        Partitions and crashes floor the arrival at their heal/recovery
        time instead of dropping: the transport keeps retrying until the
        route returns, and the per-pair FIFO map in the network then
        preserves send order among the held messages.
        """
        for _idx, factor, extra in self._storms:
            delay = delay * factor + extra
        for _idx, loss_rate, rto in self._bursts:
            attempts = int(self._rng.geometric(1.0 - loss_rate))
            if attempts > 1:
                delay += (attempts - 1) * rto
        floor = 0.0
        for _idx, hold in self._holds:
            tag = hold[0]
            if tag == "dc":
                _, group_a, group_b, until = hold
                if (src_dc in group_a and dst_dc in group_b) or (
                    src_dc in group_b and dst_dc in group_a
                ):
                    if until > floor:
                        floor = until
            elif tag == "link":
                _, dc_a, dc_b, until = hold
                if (src_dc == dc_a and dst_dc == dc_b) or (
                    src_dc == dc_b and dst_dc == dc_a
                ):
                    if until > floor:
                        floor = until
            else:
                _, name, until = hold
                if src == name or dst == name:
                    if until > floor:
                        floor = until
        return delay, floor
