"""Deterministic, declarative fault injection for the simulation.

A :class:`FaultSchedule` is a plain-data list of timed fault events —
partitions, loss bursts, delay storms, server crashes, leader pauses,
clock-skew spikes — fully serializable to JSON and reproducible from a
seed.  A :class:`FaultInjector` binds a schedule to a live cluster and
drives the transitions at simulated time, recording a deterministic
event log whose fingerprint is part of the fuzzing harness's replay
artifact.

Fault semantics are chosen to compose with the repo's protocols, which
model TCP/gRPC transports (no client-side timeouts, no retransmission
logic above the network layer):

* **Partitions and crashes hold messages**; they do not drop them.  A
  message crossing an active cut arrives when the cut heals (TCP keeps
  retransmitting until the route returns).  Dropping instead would hang
  transactions forever and turn modeling artifacts into fake invariant
  violations.
* **Loss bursts add retransmission latency** (geometric attempt counts
  times an RTO, mirroring :class:`repro.net.loss.LossModel`).
* **Crashes are fail-stop without durability loss**: the node's CPU is
  stalled and its traffic held until recovery, after which it resumes
  with its state intact — consistent with the in-memory Raft model.

No kind drops a message: every message arrives once, in send order,
which is the network's one delivery rule.
"""

from repro.faults.schedule import (
    FAULT_KINDS,
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
from repro.faults.injector import FaultInjector

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "FaultInjector",
    "clock_skew",
    "delay_storm",
    "leader_pause",
    "link_partition",
    "loss_burst",
    "random_schedule",
    "region_partition",
    "server_crash",
]
