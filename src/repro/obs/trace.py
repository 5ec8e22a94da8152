"""Simulation-clock-native spans and events.

A :class:`Span` is a named interval of *simulated* time on one node,
optionally tied to a transaction (or transaction attempt) id and to a
parent span.  An event is a point-in-time record.  Together they form
per-transaction trace trees:

* the client driver opens a root ``txn`` span per logical transaction
  and one ``attempt`` child span per attempt (explicit ``parent=``);
* servers, the network and Raft tag their spans/events with the attempt
  id (``"<txn_id>.<n>"``) they belong to — the exporters and the trace
  CLI re-attach them to the owning attempt by that id, which avoids
  threading span contexts through every message payload.

Abort sites call :meth:`Tracer.abort` (client-side, one per aborted
attempt) or :meth:`Tracer.refuse` (server-side, one per refusal site),
both stamped with an :class:`~repro.obs.abort.AbortReason`.

A run is traced when a tracer is attached to its simulator
(:meth:`Tracer.attach`); an untraced run's ``sim.tracer`` is ``None``.
Every instrumented site reads ``tracer = self.sim.tracer`` and records
only ``if tracer is not None``, so an untraced run pays one attribute
load and a branch per site::

    tracer = self.sim.tracer
    if tracer is not None:
        span = tracer.span("prepare", node=self.name, txn=txn)
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.obs.abort import reason_value


class Span:
    """One named interval; finish it explicitly or via ``with``."""

    __slots__ = ("span_id", "parent_id", "name", "node", "txn", "start",
                 "end", "attrs", "_tracer")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        name: str,
        *,
        node: Optional[str] = None,
        txn: Optional[str] = None,
        parent_id: Optional[int] = None,
        start: float = 0.0,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.node = node
        self.txn = txn
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = attrs or {}

    @property
    def finished(self) -> bool:
        return self.end is not None

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def finish(self, at: Optional[float] = None) -> None:
        """Close the span (idempotent); ``at`` overrides the clock."""
        if self.end is None:
            self.end = self._tracer._clock() if at is None else at

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> None:
        self.finish()


class TraceEvent:
    """A point-in-time record (aborts, wounds, ...)."""

    __slots__ = ("name", "time", "node", "txn", "attrs")

    def __init__(
        self,
        name: str,
        time: float,
        node: Optional[str] = None,
        txn: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.time = time
        self.node = node
        self.txn = txn
        self.attrs = attrs or {}


class Tracer:
    """Collects spans and events for one run."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self._next_id = 0
        self.spans: List[Span] = []
        self.events: List[TraceEvent] = []

    def attach(self, sim) -> "Tracer":
        """Trace ``sim``'s run: become ``sim.tracer`` and read its clock."""
        sim.tracer = self
        self._clock = lambda: sim.now
        return self

    def span(
        self,
        name: str,
        *,
        node: Optional[str] = None,
        txn: Optional[str] = None,
        parent: Any = None,
        start: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        self._next_id += 1
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        span = Span(
            self,
            self._next_id,
            name,
            node=node,
            txn=txn,
            parent_id=parent_id,
            start=self._clock() if start is None else start,
            attrs=attrs or None,
        )
        self.spans.append(span)
        return span

    def event(
        self,
        name: str,
        *,
        node: Optional[str] = None,
        txn: Optional[str] = None,
        at: Optional[float] = None,
        **attrs: Any,
    ) -> None:
        self.events.append(
            TraceEvent(
                name,
                self._clock() if at is None else at,
                node=node,
                txn=txn,
                attrs=attrs or None,
            )
        )

    # ------------------------------------------------------------------
    # Abort taxonomy entry points

    def abort(
        self,
        reason,
        *,
        node: Optional[str] = None,
        txn: Optional[str] = None,
        **attrs: Any,
    ) -> None:
        """Client-side record: one per aborted attempt."""
        self.event("abort", node=node, txn=txn,
                   reason=reason_value(reason), **attrs)

    def refuse(
        self,
        reason,
        *,
        node: Optional[str] = None,
        txn: Optional[str] = None,
        **attrs: Any,
    ) -> None:
        """Server-side record: one per refusal site (an attempt touching
        several partitions can collect several)."""
        self.event("refuse", node=node, txn=txn,
                   reason=reason_value(reason), **attrs)
