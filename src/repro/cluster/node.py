"""Simulated machines and their CPU service-time model.

A :class:`Node` is anything with an address, a datacenter, a clock and a
message handler.  Servers subclass it and register RPC handlers; clients
usually run as processes holding a reference to a client-side node.

Service model
-------------
Real servers saturate: Figure 14 of the paper (throughput vs partitions)
and the leader-bottleneck effect in Figure 7(c) only exist because CPUs
are finite.  We model each node as a single FIFO service queue: handling
a message costs ``service_time`` seconds of node CPU, messages are
serviced in arrival order, and a message arriving while the node is busy
waits.  ``service_time == 0`` (the default for clients) disposes of the
queue entirely.

The per-message cost is intentionally coarse: every message costs the
node's one constant ``service.service_time``, which the network reads
directly on each arrival.  Calibration lives with the experiments, not
here.

One node's completion times strictly increase: a task starts at
``max(now, busy_until)``, costs more than zero, and :meth:`stall_until`
only moves the cursor forward.  That lets the network keep a node's
queued completions in one kernel lane (:class:`repro.sim.Lane`), so a
saturated server costs the event heap one entry, not one per queued
message.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.cluster.clock import Clock, ClockConfig
from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.net.message import Message


class ServiceModel:
    """FIFO busy-cursor CPU model for one node."""

    def __init__(self, sim: Simulator, service_time: float = 0.0) -> None:
        self._sim = sim
        self.service_time = service_time
        self._busy_until = 0.0

    def admission_delay(self, cost: float) -> float:
        """Queue a task costing ``cost`` seconds; return delay to completion.

        The returned delay covers both queueing behind earlier work and
        the task's own service time.
        """
        if cost <= 0.0:
            return 0.0
        now = self._sim._now
        busy = self._busy_until
        start = now if now > busy else busy
        self._busy_until = start + cost
        return start + cost - now

    def stall_until(self, when: float) -> None:
        """Freeze this CPU until ``when`` (fault injection).

        Everything already queued, plus every message arriving before
        ``when``, is serviced after the stall in FIFO order — the model
        of a GC pause, a VM freeze, or the non-durable crash+recovery
        the fault injector provides (state survives, time is lost).
        Idempotent against shorter stalls: the cursor only moves forward.
        """
        if when > self._busy_until:
            self._busy_until = when


class Node:
    """Base class for simulated machines.

    Subclasses implement :meth:`handle_message` (for one-way messages)
    and/or ``handle_<method>`` methods invoked by the RPC layer in
    :mod:`repro.net.network`.  The network looks a node's handler for a
    method up on the first such message and keeps it, so handlers are
    not swapped after a node starts receiving.  An RPC handler's return
    value (or the value of the Future it returns) travels back to the
    caller on a reply that carries the caller's Future.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        datacenter: str,
        clock: Optional[Clock] = None,
        service_time: float = 0.0,
    ) -> None:
        self.sim = sim
        self.name = name
        self.datacenter = datacenter
        self.clock = clock or Clock(sim, ClockConfig(max_offset=0.0))
        self.service = ServiceModel(sim, service_time)

    def handle_message(self, message: "Message") -> Any:
        """One-way message entry point; default drops the message."""
        raise NotImplementedError(
            f"{type(self).__name__} ({self.name}) cannot handle "
            f"one-way message {message.method!r}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}@{self.datacenter}>"
