"""Simulation-time observability: tracing and the abort taxonomy.

The pieces:

* :class:`Tracer` / :class:`Span` — structured spans and events on the
  simulated clock, forming per-transaction trace trees (client dispatch
  → network hops → Raft replication → lock/queue waits → prepare →
  commit) — see :mod:`repro.obs.trace`.  :meth:`Tracer.attach` makes a
  tracer the simulator's ``sim.tracer``; an untraced run's is ``None``;
* :class:`AbortReason` — the abort-reason taxonomy every abort site in
  the protocol implementations stamps on refusals and decisions;
* exporters — JSONL and Chrome ``trace_event`` (Perfetto-loadable), in
  :mod:`repro.obs.export`;
* ``python -m repro.trace`` — the trace-inspection CLI
  (:mod:`repro.obs.cli`).

Counts that every run needs are kept by the layers themselves, traced or
not: ``Simulator.events_fired``, ``Network.messages_sent``/``bytes_sent``,
``TwoPLParticipant.wounds_sent``.
"""

from repro.obs.abort import AbortReason, reason_value
from repro.obs.export import (
    chrome_trace,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.trace import Span, TraceEvent, Tracer

__all__ = [
    "AbortReason",
    "Span",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "read_jsonl",
    "reason_value",
    "write_chrome_trace",
    "write_jsonl",
]
