"""Message delivery between simulated nodes.

The network knows every node by name and keeps one :class:`_Link` per
ordered (src, dst) node pair, built on the first message between them.
A link holds everything that is the same for every message on it: the
destination node, the datacenter pair, the one-way delay when it is a
constant, the bandwidth pipe, the FIFO floor and the destination's
method -> handler table.  Sending a message costs:

``transmission (pipe queueing + size/bandwidth)  +  propagation (delay
model sample)  +  retransmission penalty (loss model)``

and delivery additionally waits for the destination node's CPU (its
:class:`~repro.cluster.node.ServiceModel`).  Intra-datacenter messages
skip the bandwidth pipe (they do not cross the WAN link); so do all
messages when the loss config's link capacity is infinite.  Pipes are
FIFO queues per ordered datacenter pair, shared by every link between
the two.

What a delivery costs the kernel: the arrival event joins the link's
lane (``_Link.arrivals``, a :class:`~repro.sim.Lane`) and, when the
destination's CPU is busy, the completion event joins the destination's
lane (``_Link.cpu``), both through ``Simulator.post_at`` with the
message as the lane's item (it carries its link in ``Message.link``).
So no ``partial`` is built per hop, and the event heap holds one entry
per link with messages in flight and one per busy CPU, not one per
message.  That is exact: a link's arrivals never go backwards (the FIFO
floor, faults included), and one node's completions strictly increase
(its FIFO busy cursor), so the lanes fire in the order and at the times
that an entry per event would.

Three primitives:

* :meth:`Network.send` — one-way message; dispatched to the
  destination's ``handle_<method>``.
* :meth:`Network.call` — request/response RPC returning a
  :class:`~repro.sim.Future`.  The handler may return a plain value
  (respond now) or a Future (respond when it resolves).  The request
  message carries the caller's future and the reply carries it back,
  so the network keeps no table of outstanding calls: a request
  expects a reply iff it carries a future.
* :meth:`Network.probe` — a ``probe`` request whose reply lands in a
  sink (a :class:`~repro.net.probing.ProbeProxy` round) at dispatch.

A probe reply costs what any reply costs up to its arrival time: the
delay and loss samples, the pipe slot, the fault hold, the FIFO
floor and ``messages_sent``/``bytes_sent``.  It gets no arrival event:
the sink keeps ``(arrival, sequence)``, where ``sequence`` is the
kernel's sequence number at dispatch, and a read of the proxy's window
at ``(now, s)`` — ``s`` the sequence number of the event doing the
read — first lands every reply with ``arrival < now``, or
``arrival == now`` and ``sequence < s``.  Those are exactly the replies
whose arrival event would have fired before the read, so the window,
and every decision read from it, is the same as with the event.  This
holds only because the proxy has zero service time (no CPU admission
between arrival and handling) and handling a reply only writes the
window; the proxy refuses to probe otherwise.

Handlers receive ``(payload, src_name)`` and are looked up as
``handle_<method>`` on the destination node; a node without one for a
message's method fails the run with ``AttributeError``.  Protocol
payloads are the classes of :mod:`repro.net.payload`, read by
attribute; the network itself only reads a reply's ``result`` and,
when tracing, a payload's ``txn`` tag, so any object (the generic tests
send dicts) can travel.

One delivery rule: every message arrives exactly once, and the
messages on a link arrive in send order.  Loss only adds retransmission
delay, and faults only delay or hold a message.  Faults:
:meth:`Network.set_faults` attaches a :class:`repro.faults.FaultInjector`
schedule, the one fault path; it can delay or hold each message.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.cluster.node import Node
from repro.net.delay import ConstantDelay, DelayModel
from repro.net.loss import LossConfig, LossModel
from repro.net.message import Message
from repro.net.payload import Reply
from repro.net.topology import Topology
from repro.sim import Future, Lane, Simulator


class _Pipe:
    """FIFO transmission queue for one ordered datacenter pair."""

    __slots__ = ("bandwidth", "_busy_until")

    def __init__(self, bandwidth: float) -> None:
        self.bandwidth = bandwidth
        self._busy_until = 0.0

    def transmit(self, now: float, size_bytes: int) -> float:
        """Queue ``size_bytes``; return the delay until fully on the wire."""
        busy = self._busy_until
        start = now if now > busy else busy
        end = start + size_bytes / self.bandwidth
        self._busy_until = end
        return end - now


class _Link:
    """What every message from one node to another has in common."""

    __slots__ = ("dst", "src_dc", "dst_dc", "delay", "pipe", "floor",
                 "handlers", "arrivals", "cpu")

    def __init__(
        self,
        dst: Node,
        src_dc: str,
        dst_dc: str,
        delay: Optional[float],
        pipe: Optional[_Pipe],
        handlers: Dict[str, Any],
        arrivals: Lane,
        cpu: Lane,
    ) -> None:
        self.dst = dst
        self.src_dc = src_dc
        self.dst_dc = dst_dc
        #: The one-way delay when it is the same for every message
        #: (constant model, no loss); None samples it per message.
        self.delay = delay
        #: The datacenter pair's bandwidth pipe, or None when messages
        #: on this link never queue for bandwidth.
        self.pipe = pipe
        #: TCP/gRPC semantics: messages on a link arrive in send order
        #: — a later message never overtakes an earlier one, though it
        #: can be delayed behind it.  The latest arrival so far.
        self.floor = 0.0
        #: The destination's method -> bound handler; shared by every
        #: link into it.
        self.handlers = handlers
        #: The kernel lane of this link's arrival events: the FIFO
        #: floor keeps their deadlines in send order.
        self.arrivals = arrivals
        #: The kernel lane of the destination's CPU completions, shared
        #: by every link into it: its FIFO busy cursor keeps them in
        #: admission order.
        self.cpu = cpu


#: method -> "<method>.reply", interned once per method name instead of
#: an f-string allocation per reply.
_REPLY_METHOD: Dict[str, str] = {}


def _txn_tag(message: Message) -> Optional[str]:
    """The transaction-attempt id a message belongs to, if tagged.

    Protocol payloads carry ``"txn": "<txn_id>.<attempt>"``; replies and
    infrastructure traffic (probes, Raft internals) are untagged and get
    no per-message span; :attr:`Network.messages_sent` counts them all.
    """
    txn = getattr(message.payload, "txn", None)
    return txn if isinstance(txn, str) else None


class Network:
    """The simulated WAN connecting all nodes."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        delay_model: Optional[DelayModel] = None,
        loss: LossConfig = LossConfig(),
        loss_rng: Any = None,
    ) -> None:
        """``loss`` is the packet-loss configuration: rate 0 disables
        both the retransmission penalty and the Mathis bandwidth cap,
        and an infinite link capacity disables the bandwidth pipes."""
        self.sim = sim
        self.topology = topology
        self.delay_model = delay_model or ConstantDelay(topology)
        # Bound once: the model never changes after construction and the
        # two-step attribute chain is paid per message otherwise.
        self._sample_delay = self.delay_model.sample
        self.loss = loss
        self._nodes: Dict[str, Node] = {}
        # src name -> dst name -> link.  Nested so that finding a
        # message's link hashes two (cached) strings, not a new tuple.
        self._links: Dict[str, Dict[str, _Link]] = {}
        # dst name -> method -> handler; see _Link.handlers.
        self._handlers: Dict[str, Dict[str, Any]] = {}
        # dst name -> CPU-completion lane; see _Link.cpu.
        self._cpu_lanes: Dict[str, Lane] = {}
        self._pipes: Dict[Tuple[str, str], _Pipe] = {}
        # Declarative fault schedules (repro.faults): when attached, the
        # injector's network-fault state is consulted per message while
        # at least one fault window is open.  None outside fault runs,
        # so the hot path pays one attribute load and an is-None test.
        self._faults = None
        self._loss = None
        if loss.loss_rate > 0.0:
            if loss_rng is None:
                raise ValueError("a loss RNG is required when loss_rate > 0")
            self._loss = LossModel(loss, loss_rng)
        # Config is immutable, so whether a link's delay is a constant
        # and whether bandwidth matters at all are resolved once.  A
        # finite capacity keeps every pair's Mathis bandwidth finite.
        self._constant_delay = self._loss is None and isinstance(
            self.delay_model, ConstantDelay
        )
        self._bandwidth_capped = loss.link_capacity_bytes_per_s != float("inf")
        self.messages_sent = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # Registration

    def register(self, node: Node) -> Node:
        """Add a node; its ``name`` becomes its network address."""
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._links[node.name] = {}
        self._handlers[node.name] = {}
        return node

    def node(self, name: str) -> Node:
        return self._nodes[name]

    # ------------------------------------------------------------------
    # Primitives

    def send(self, src: Node, dst_name: str, method: str, payload: Any) -> None:
        """Fire-and-forget message."""
        self._dispatch(Message(method, payload, src.name, dst_name))

    def call(self, src: Node, dst_name: str, method: str, payload: Any) -> Future:
        """Request/response RPC; resolves with the handler's response."""
        future = Future()
        self._dispatch(Message(method, payload, src.name, dst_name, future))
        return future

    def probe(self, src: Node, dst_name: str, payload: Any, sink: Any) -> None:
        """A ``probe`` request whose reply goes to ``sink`` at dispatch.

        The reply is dispatched as any other, but no arrival event is
        posted for it: ``sink.land(reply, arrival, sequence)`` gets it
        with its arrival time and the kernel's sequence number at that
        moment.  Only for a caller with zero service time whose reply
        handling just records the reply (see the module notes).
        """
        self._dispatch(Message("probe", payload, src.name, dst_name, sink))

    # ------------------------------------------------------------------
    # Fault injection

    def set_faults(self, faults) -> None:
        """Attach (or detach with ``None``) a declarative fault state.

        ``faults`` is the network-fault view of a
        :class:`repro.faults.FaultInjector`; while ``faults.active`` is
        True, ``faults.route(src, dst, src_dc, dst_dc, delay)`` is
        consulted per message and returns ``(delay, floor)``: it may
        inflate the delay or floor the arrival time (partition/crash
        hold), but never drops the message.
        """
        self._faults = faults

    # ------------------------------------------------------------------
    # Delivery machinery

    def _link(self, src_name: str, dst_name: str) -> _Link:
        """Build the link for a node pair's first message."""
        src_dc = self._nodes[src_name].datacenter
        dst = self._nodes[dst_name]
        dst_dc = dst.datacenter
        delay = (
            self._sample_delay(src_dc, dst_dc) if self._constant_delay
            else None
        )
        pipe = None
        if self._bandwidth_capped and src_dc != dst_dc:
            pipe = self._pipes.get((src_dc, dst_dc))
            if pipe is None:
                rtt = self.topology.rtt(src_dc, dst_dc) / 1000.0
                bandwidth = self.loss.effective_bandwidth(rtt)
                pipe = self._pipes[(src_dc, dst_dc)] = _Pipe(bandwidth)
        # The lanes bind _arrive and _handle now, so a wrapper of either
        # must be installed before the link's first message.
        sim = self.sim
        cpu = self._cpu_lanes.get(dst_name)
        if cpu is None:
            cpu = self._cpu_lanes[dst_name] = sim.lane(self._handle)
        link = _Link(
            dst, src_dc, dst_dc, delay, pipe, self._handlers[dst_name],
            sim.lane(self._arrive), cpu,
        )
        self._links[src_name][dst_name] = link
        return link

    def _dispatch(self, message: Message) -> None:
        sim = self.sim
        try:
            link = self._links[message.src][message.dst]
        except KeyError:
            link = self._link(message.src, message.dst)
        self.messages_sent += 1
        size = message.wire_size
        self.bytes_sent += size
        # Delivery delay: propagation + retransmission penalty, then
        # (cross-DC only) bandwidth-pipe queueing.
        delay = link.delay
        if delay is None:
            delay = self._sample_delay(link.src_dc, link.dst_dc)
            if self._loss is not None:
                delay += self._loss.retransmission_delay()
        pipe = link.pipe
        if pipe is not None:
            delay += pipe.transmit(sim._now, size)
        faults = self._faults
        if faults is not None and faults.active:
            delay, fault_floor = faults.route(
                message.src, message.dst, link.src_dc, link.dst_dc, delay
            )
            arrival = sim._now + delay
            if fault_floor > arrival:
                arrival = fault_floor
        else:
            arrival = sim._now + delay
        if link.floor > arrival:
            arrival = link.floor
        link.floor = arrival
        tracer = sim.tracer
        if tracer is not None:
            txn = _txn_tag(message)
            if txn is not None:
                tracer.span(
                    f"net:{message.method}",
                    node=message.src,
                    txn=txn,
                    dst=message.dst,
                ).finish(at=arrival)
        if message.reply:
            sink = message.future
            if sink.__class__ is not Future:
                # A probe reply: lands now, tagged with the arrival event
                # it replaces (see the module notes).
                sink.land(message, arrival, sim._sequence)
                return
        message.link = link
        sim.post_at(arrival, message, link.arrivals)

    def _arrive(self, message: Message) -> None:
        link = message.link
        service = link.dst.service
        cost = service.service_time
        if cost > 0.0:
            cpu_delay = service.admission_delay(cost)
            if cpu_delay > 0:
                sim = self.sim
                sim.post_at(sim._now + cpu_delay, message, link.cpu)
                return
        self._handle(message)

    def _handle(self, message: Message) -> None:
        future = message.future
        if message.reply:
            # Ignored if the caller's future was resolved another way.
            future.try_set_result(message.payload.result)
            return
        link = message.link
        handlers = link.handlers
        method = message.method
        try:
            handler = handlers[method]
        except KeyError:
            handler = handlers[method] = getattr(link.dst, "handle_" + method)
        result = handler(message.payload, message.src)
        if future is not None:
            if isinstance(result, Future):
                result.add_done_callback(
                    lambda f: self._send_reply(message, f.value)
                )
            else:
                self._send_reply(message, result)

    def _send_reply(self, request: Message, result: Any) -> None:
        method = request.method
        reply_method = _REPLY_METHOD.get(method)
        if reply_method is None:
            reply_method = _REPLY_METHOD[method] = method + ".reply"
        self._dispatch(
            Message(
                reply_method,
                Reply(result),
                request.dst,
                request.src,
                request.future,
                True,
            )
        )
