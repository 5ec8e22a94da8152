"""Messages exchanged over the simulated network.

Messages carry a method name (dispatched to ``handle_<method>`` on the
destination node), a payload, an estimated
wire size used by the bandwidth pipes and, on a request that expects a
reply and on that reply, where the reply goes.  Protocol payloads are
the classes of :mod:`repro.net.payload`, which precompute their size;
any other payload (the generic network tests send plain dicts) is sized
by :func:`estimate_size`, the walk those classes' sizes are defined by.

Sizing: keys and values in the evaluation are 64-byte strings; a
message's wire size is a fixed header plus the payload's estimated
serialized size.  The estimate is deliberately simple — it only needs to
rank systems by bytes pushed (Carousel Basic replicates write data twice,
Carousel Fast fans out to every replica, ...), which drives Figure 12.

``Message`` is a hand-written ``__slots__`` class rather than a
dataclass: one is allocated per network send, and the dataclass
machinery (generated ``__init__``/``__eq__``, dict-backed instances,
lazy size property) showed up as several percent of experiment runtime.
The wire size is computed eagerly in ``__init__`` because every message
needs it at dispatch time anyway (byte accounting + bandwidth pipes).
"""

from __future__ import annotations

from typing import Any

#: Fixed per-message overhead (TCP/IP + gRPC framing, roughly).
HEADER_BYTES = 120


def estimate_size(value: Any, _len=len, _str=str, _int=int, _float=float,
                  _dict=dict) -> int:
    """Rough serialized size of a payload value, in bytes.

    Iterative (explicit work stack) and ordered by frequency: message
    payloads are dominated by strings (keys/values) and numbers, so
    container items of those types are totalled inline instead of
    taking another trip through the stack.  The ``_len``/``_str``/...
    defaults pin builtins to fast locals — this runs once per network
    message and the global lookups were measurable.
    """
    total = 0
    stack = [value]
    pop = stack.pop
    append = stack.append
    while stack:
        item = pop()
        kind = item.__class__
        if kind is _str:
            total += _len(item)
        elif kind is _int or kind is _float:
            total += 8
        elif kind is _dict:
            for key, val in item.items():
                k = key.__class__
                if k is _str:
                    total += _len(key)
                elif k is _int or k is _float:
                    total += 8
                else:
                    append(key)
                k = val.__class__
                if k is _str:
                    total += _len(val)
                elif k is _int or k is _float:
                    total += 8
                else:
                    append(val)
        elif kind in (list, tuple, set, frozenset):
            for val in item:
                k = val.__class__
                if k is _str:
                    total += _len(val)
                elif k is _int or k is _float:
                    total += 8
                else:
                    append(val)
        elif item is None or kind is bool:
            total += 1
        elif kind is bytes:
            total += _len(item)
        else:
            # Opaque object: flat cost, or whatever it self-reports.
            reported = getattr(item, "wire_size", None)
            total += int(reported) if reported is not None else 64
    return total


class Message:
    """One network message.

    ``future`` is set on a request that expects a reply and on its
    reply, which carries it back: the caller's
    :class:`~repro.sim.Future` (:meth:`Network.call`), or a probe
    round's sink (:meth:`Network.probe`).  ``reply`` is True on a reply.
    ``link`` is the network's link from ``src`` to ``dst``, set when the
    message is dispatched, so that its arrival and CPU-completion events
    need nothing beside the message.
    """

    __slots__ = ("method", "payload", "src", "dst", "future", "reply",
                 "wire_size", "link")

    def __init__(
        self,
        method: str,
        payload: Any,
        src: str,
        dst: str,
        future: Any = None,
        reply: bool = False,
    ) -> None:
        self.method = method
        self.payload = payload
        self.src = src
        self.dst = dst
        self.future = future
        self.reply = reply
        #: Estimated bytes on the wire (header + payload); computed once
        #: — the payload is never mutated after construction.  Payload
        #: classes (:mod:`repro.net.payload`) precompute their size and
        #: are the common case, so their slot is read directly; anything
        #: without the attribute (the generic tests' dicts) takes the
        #: estimate walk.
        try:
            self.wire_size = HEADER_BYTES + payload.wire_size
        except AttributeError:
            self.wire_size = HEADER_BYTES + estimate_size(payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Message {self.method} {self.src}->{self.dst}"
            f"{' reply' if self.reply else ''}>"
        )
