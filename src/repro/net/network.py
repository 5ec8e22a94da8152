"""Message delivery between simulated nodes.

The network knows every node by name and, for each ordered datacenter
pair, keeps a FIFO bandwidth pipe.  Sending a message costs:

``transmission (pipe queueing + size/bandwidth)  +  propagation (delay
model sample)  +  retransmission penalty (loss model)``

and delivery additionally waits for the destination node's CPU (its
:class:`~repro.cluster.node.ServiceModel`).  Intra-datacenter messages
skip the bandwidth pipe (they do not cross the WAN link).

Two primitives:

* :meth:`Network.send` — one-way message; dispatched to
  ``handle_<method>`` if the destination defines it, else to
  ``handle_message``.
* :meth:`Network.call` — request/response RPC returning a
  :class:`~repro.sim.Future`.  The handler may return a plain value
  (respond now) or a Future (respond when it resolves).

Handlers receive ``(payload, src_name)`` and are looked up as
``handle_<method>`` on the destination node.  Protocol payloads are the
classes of :mod:`repro.net.payload`, read by attribute; the network
itself only reads a reply's ``result`` and, when tracing, a payload's
``txn`` tag, so any object (the generic tests send dicts) can travel.

Faults: :meth:`Network.set_faults` attaches a
:class:`repro.faults.FaultInjector` schedule, the one fault path; it
can hold, delay or (blackhole) drop each message.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Optional, Tuple

from repro.cluster.node import Node
from repro.net.delay import ConstantDelay, DelayModel
from repro.net.loss import LossConfig, LossModel
from repro.net.message import Message
from repro.net.payload import Reply
from repro.net.topology import Topology
from repro.sim import Future, Simulator


@dataclass(frozen=True)
class NetworkConfig:
    """Network-wide knobs.

    Attributes:
        loss: packet-loss configuration (rate 0 disables both the
            retransmission penalty and the Mathis bandwidth cap).
        model_bandwidth: when False, messages never queue on pipes even
            if a loss config is present — used by unit tests that want
            pure propagation delays.
    """

    loss: LossConfig = LossConfig()
    model_bandwidth: bool = True


class _Pipe:
    """FIFO transmission queue for one ordered datacenter pair."""

    __slots__ = ("bandwidth", "_busy_until")

    def __init__(self, bandwidth: float) -> None:
        self.bandwidth = bandwidth
        self._busy_until = 0.0

    def transmit(self, now: float, size_bytes: int) -> float:
        """Queue ``size_bytes``; return the delay until fully on the wire."""
        bandwidth = self.bandwidth
        if bandwidth == float("inf"):
            return 0.0
        busy = self._busy_until
        start = now if now > busy else busy
        end = start + size_bytes / bandwidth
        self._busy_until = end
        return end - now


#: method -> "<method>.reply", interned once per method name instead of
#: an f-string allocation per reply.
_REPLY_METHOD: Dict[str, str] = {}


def _txn_tag(message: Message) -> Optional[str]:
    """The transaction-attempt id a message belongs to, if tagged.

    Protocol payloads carry ``"txn": "<txn_id>.<attempt>"``; replies and
    infrastructure traffic (probes, Raft internals) are untagged and get
    no per-message span — metrics still count them.
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
        config: NetworkConfig = NetworkConfig(),
        loss_rng: Any = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.delay_model = delay_model or ConstantDelay(topology)
        # Bound once: the model never changes after construction and the
        # two-step attribute chain is paid per message otherwise.
        self._sample_delay = self.delay_model.sample
        self.config = config
        self._nodes: Dict[str, Node] = {}
        self._pipes: Dict[Tuple[str, str], _Pipe] = {}
        self._pending_calls: Dict[int, Future] = {}
        # (dst_name, method) -> bound handler, or None for the
        # handle_message fallback.  Nodes register once and handlers are
        # bound methods, so the cache never goes stale; it replaces an
        # f-string + getattr per delivered message.
        self._handler_cache: Dict[Tuple[str, str], Optional[Any]] = {}
        # TCP/gRPC semantics: per (src, dst) node pair, messages are
        # delivered in send order — a later message never overtakes an
        # earlier one, though it can be delayed behind it.
        self._last_arrival: Dict[Tuple[str, str], float] = {}
        # Declarative fault schedules (repro.faults): when attached, the
        # injector's network-fault state is consulted per message while
        # at least one fault window is open.  None outside fault runs,
        # so the hot path pays one attribute load and an is-None test.
        self._faults = None
        self.messages_dropped = 0
        self._loss = None
        if config.loss.loss_rate > 0.0:
            if loss_rng is None:
                raise ValueError("a loss RNG is required when loss_rate > 0")
            self._loss = LossModel(config.loss, loss_rng)
        # Config is immutable, so the "does bandwidth matter at all"
        # test is resolved once instead of per message.
        self._bandwidth_capped = (
            config.model_bandwidth
            and config.loss.link_capacity_bytes_per_s != float("inf")
        )
        self.messages_sent = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # Registration

    def register(self, node: Node) -> Node:
        """Add a node; its ``name`` becomes its network address."""
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        return node

    def node(self, name: str) -> Node:
        return self._nodes[name]

    # ------------------------------------------------------------------
    # Primitives

    def send(self, src: Node, dst_name: str, method: str, payload: Any) -> None:
        """Fire-and-forget message."""
        message = Message(method, payload, src.name, dst_name)
        self._dispatch(message)

    def call(self, src: Node, dst_name: str, method: str, payload: Any) -> Future:
        """Request/response RPC; resolves with the handler's response."""
        message = Message(method, payload, src.name, dst_name)
        future = Future()
        self._pending_calls[message.msg_id] = future
        self._dispatch(message)
        return future

    # ------------------------------------------------------------------
    # Delivery machinery

    # ------------------------------------------------------------------
    # Fault injection

    def set_faults(self, faults) -> None:
        """Attach (or detach with ``None``) a declarative fault state.

        ``faults`` is the network-fault view of a
        :class:`repro.faults.FaultInjector`; while ``faults.active`` is
        True, ``faults.route(src, dst, src_dc, dst_dc, delay)`` is
        consulted per message and may drop it (return ``None``), inflate
        its delay, or floor its arrival time (partition/crash hold).
        """
        self._faults = faults

    def _dispatch(self, message: Message) -> None:
        sim = self.sim
        obs = sim.obs
        nodes = self._nodes
        src = nodes[message.src]
        dst = nodes[message.dst]
        self.messages_sent += 1
        size = message.wire_size
        self.bytes_sent += size
        # Delivery delay, inlined: propagation + retransmission penalty
        # + (cross-DC only) bandwidth-pipe queueing.
        src_dc = src.datacenter
        dst_dc = dst.datacenter
        delay = self._sample_delay(src_dc, dst_dc)
        if self._loss is not None:
            delay += self._loss.retransmission_delay()
        if self._bandwidth_capped and src_dc != dst_dc:
            pipe = self._pipes.get((src_dc, dst_dc))
            if pipe is None:
                pipe = self._pipe(src_dc, dst_dc)
            delay += pipe.transmit(sim._now, size)
        faults = self._faults
        if faults is not None and faults.active:
            routed = faults.route(
                message.src, message.dst, src_dc, dst_dc, delay
            )
            if routed is None:
                # Blackhole: the only fault that vaporizes a packet.
                self.messages_dropped += 1
                if obs.enabled:
                    obs.metrics.counter("net.messages_dropped").inc()
                    obs.tracer.event(
                        "drop",
                        node=message.src,
                        txn=_txn_tag(message),
                        method=message.method,
                        dst=message.dst,
                    )
                return
            delay, fault_floor = routed
        else:
            fault_floor = 0.0
        pair = (message.src, message.dst)
        last = self._last_arrival
        arrival = sim._now + delay
        if fault_floor > arrival:
            arrival = fault_floor
        floor = last.get(pair)
        if floor is not None and floor > arrival:
            arrival = floor
        last[pair] = arrival
        if obs.enabled:
            obs.metrics.counter("net.messages").inc(method=message.method)
            obs.metrics.counter("net.bytes").inc(message.wire_size)
            obs.metrics.histogram("net.delay").observe(
                arrival - sim.now,
                link=f"{src.datacenter}->{dst.datacenter}",
            )
            txn = _txn_tag(message)
            if txn is not None:
                obs.tracer.span(
                    f"net:{message.method}",
                    node=message.src,
                    txn=txn,
                    dst=message.dst,
                ).finish(at=arrival)
        sim.post_at(arrival, partial(self._arrive, message, dst))

    def _pipe(self, src_dc: str, dst_dc: str) -> _Pipe:
        key = (src_dc, dst_dc)
        pipe = self._pipes.get(key)
        if pipe is None:
            rtt = self.topology.rtt(src_dc, dst_dc) / 1000.0
            bandwidth = self.config.loss.effective_bandwidth(rtt)
            pipe = _Pipe(bandwidth)
            self._pipes[key] = pipe
        return pipe

    def _arrive(self, message: Message, dst: Node) -> None:
        cost = dst.service_time_for(message)
        if cost > 0.0:
            cpu_delay = dst.service.admission_delay(cost)
            if cpu_delay > 0:
                self.sim.post(cpu_delay, partial(self._handle, message, dst))
                return
        self._handle(message, dst)

    def _handle(self, message: Message, dst: Node) -> None:
        if message.reply_to is not None:
            future = self._pending_calls.pop(message.reply_to, None)
            if future is not None and not future.done:
                future.set_result(message.payload.result)
            return
        cache = self._handler_cache
        key = (message.dst, message.method)
        try:
            handler = cache[key]
        except KeyError:
            handler = cache[key] = getattr(
                dst, "handle_" + message.method, None
            )
        if handler is None:
            dst.handle_message(message)
            return
        result = handler(message.payload, message.src)
        # A message expects a reply iff it was created by call(); the
        # pending map is the source of truth (send() never registers).
        if message.msg_id in self._pending_calls:
            if isinstance(result, Future):
                result.add_done_callback(
                    lambda f: self._send_reply(message, dst, f.value)
                )
            else:
                self._send_reply(message, dst, result)

    def _send_reply(self, request: Message, dst: Node, result: Any) -> None:
        method = request.method
        reply_method = _REPLY_METHOD.get(method)
        if reply_method is None:
            reply_method = _REPLY_METHOD[method] = method + ".reply"
        reply = Message(
            method=reply_method,
            payload=Reply(result),
            src=dst.name,
            dst=request.src,
            reply_to=request.msg_id,
        )
        self._dispatch(reply)
