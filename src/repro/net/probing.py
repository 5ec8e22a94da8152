"""Domino-style network measurement (Section 2.2 / Section 4).

One :class:`ProbeProxy` runs per datacenter.  It probes every partition
leader every ``interval`` seconds (the paper uses 10 ms), keeps the
samples from a sliding window (the paper uses 1 s), and estimates the
one-way delay to each leader as the window's 95th percentile.

A delay sample is ``server_receive_clock_time - proxy_send_clock_time``:
it deliberately *includes* the relative clock skew between proxy and
server, so a timestamp computed as ``client_now + estimate`` lands
correctly on the *server's* clock even when clocks disagree — this is the
trick Natto inherits from Domino for tolerating loose synchronization.

Clients do not probe; they read a :class:`ClientDelayView` that refreshes
from the local proxy every ``refresh_interval`` seconds (the paper uses
100 ms), so client estimates are slightly stale, as in the real system.

What a probe costs: the request is a message like any other (its
arrival event, the target's CPU admission and clock read, a
``Reply(ProbeReply)`` sent back through the network).  The reply is
dispatched and counted as any other, but gets no arrival event
(:meth:`repro.net.network.Network.probe`): it joins its target's
pending ``(arrival, sequence, sample)`` entries, in arrival order,
where ``sequence`` is the kernel's sequence number at dispatch.

The landing rule: every read of the window (:meth:`ProbeProxy.estimate`,
:meth:`~ProbeProxy.summary`, :meth:`~ProbeProxy.estimates`, a view
refresh) and every probe round first moves into the window exactly the
pending samples whose arrival event would have fired before it: arrival
earlier than the read's instant, or at that instant with a lower
sequence number than the reading event's.  A view refresh and a probe
round know their own event's sequence number.  The public reads are
meant for code outside the event loop (after
:meth:`~repro.sim.Simulator.run` returns) and land everything that has
arrived by ``sim.now``.  The window is then the same as with an arrival
event per reply, because the proxy has zero service time (no CPU
admission between arrival and handling; :meth:`ProbeProxy._probe_all`
refuses to probe otherwise) and handling a reply only writes the window.
Each target's window is also kept sorted by value with :mod:`bisect`,
so a p95 read is one index instead of a sort.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.cluster.node import Node
from repro.net.network import Network
from repro.net.payload import Probe, ProbeReply
from repro.sim import Simulator

#: The sequence number of a read from outside the event loop: it comes
#: after every event, so every sample that has arrived by now lands.
_OUTSIDE = float("inf")


@dataclass(frozen=True)
class DelayEstimate:
    """Summary of one proxy->target delay distribution window."""

    target: str
    p95: float
    mean: float
    samples: int


class ProbeTargetMixin:
    """Adds probe responding to a server node.

    The reply carries the server's clock reading at handling time; the
    proxy subtracts its own send-time clock reading to get a
    skew-inclusive one-way delay sample.
    """

    def handle_probe(self, payload, src: str) -> ProbeReply:
        return ProbeReply(self.clock.now())


class _Window:
    """One target's delay samples."""

    __slots__ = ("pending", "samples", "values")

    def __init__(self) -> None:
        #: Dispatched replies not yet landed: (arrival, sequence, sample).
        self.pending: Deque[Tuple[float, float, float]] = deque()
        #: The window in arrival order: (arrival, sample).
        self.samples: Deque[Tuple[float, float]] = deque()
        #: The window's samples, sorted.
        self.values: List[float] = []

    def land(self, now: float, sequence: float, span: float) -> None:
        """Move in the pending samples that arrived before the event
        with ``sequence`` at ``now``; then drop samples older than
        ``span`` before the last one landed."""
        pending = self.pending
        if not pending:
            return
        samples = self.samples
        values = self.values
        arrival = None
        while pending:
            head = pending[0]
            if head[0] > now or (head[0] == now and head[1] >= sequence):
                break
            pending.popleft()
            arrival = head[0]
            samples.append((arrival, head[2]))
            insort(values, head[2])
        if arrival is not None:
            cutoff = arrival - span
            while samples[0][0] < cutoff:
                del values[bisect_left(values, samples.popleft()[1])]


class _Round:
    """Where one probe round's replies land."""

    __slots__ = ("sent_clock", "windows")

    def __init__(self, sent_clock: float, windows: Dict[str, _Window]) -> None:
        self.sent_clock = sent_clock
        self.windows = windows

    def land(self, reply, arrival: float, sequence: int) -> None:
        self.windows[reply.src].pending.append(
            (arrival, sequence,
             reply.payload.result.server_time - self.sent_clock)
        )


class ProbeProxy(Node):
    """Per-datacenter prober and delay estimator."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        datacenter: str,
        targets: Iterable[str],
        interval: float = 0.010,
        window: float = 1.0,
        percentile: float = 95.0,
    ) -> None:
        super().__init__(sim, f"proxy-{datacenter}", datacenter)
        self._network = network
        self._targets = list(targets)
        self._interval = interval
        self._span = window
        self._percentile = percentile
        self._windows: Dict[str, _Window] = {
            t: _Window() for t in self._targets
        }
        #: The sequence number of the next probe round's event.
        self._round_sequence = _OUTSIDE
        network.register(self)

    def start(self) -> None:
        """Begin the periodic probe loop."""
        self._probe_all()

    def add_target(self, target: str) -> None:
        if target not in self._windows:
            self._targets.append(target)
            self._windows[target] = _Window()

    def _probe_all(self) -> None:
        if self.service.service_time != 0.0:
            raise ValueError(
                f"{self.name} has a service time: its probe replies land "
                "without an arrival event, which needs a zero-cost CPU"
            )
        # Keeps the pending samples short even if nothing reads.
        self._land(self._round_sequence)
        # One round reads the clock once and sends every target the same
        # payload: payloads are read-only once sent.
        sent_clock = self.clock.now()
        probe = Probe(sent_clock)
        sink = _Round(sent_clock, self._windows)
        send = self._network.probe
        for target in self._targets:
            send(self, target, probe, sink)
        # The probe loop runs for the whole simulation and is never
        # cancelled, so it takes the kernel's timerless fast path.
        sim = self.sim
        sim.post(self._interval, self._probe_all)
        self._round_sequence = sim._sequence

    def _land(self, sequence: float) -> None:
        now = self.sim._now
        span = self._span
        for window in self._windows.values():
            window.land(now, sequence, span)

    def _quantile(self, values: List[float]) -> float:
        """The configured percentile of a sorted window."""
        index = min(
            len(values) - 1,
            int(len(values) * self._percentile / 100.0),
        )
        return values[index]

    def _estimates(self, sequence: float) -> Dict[str, float]:
        self._land(sequence)
        windows = self._windows
        out = {}
        for target in self._targets:
            values = windows[target].values
            if values:
                out[target] = self._quantile(values)
        return out

    # ------------------------------------------------------------------
    # Queries, from outside the event loop (see the module notes)

    def estimate(self, target: str) -> Optional[float]:
        """p95 one-way delay (seconds, skew-inclusive) or None if no data."""
        window = self._windows.get(target)
        if window is None:
            return None
        window.land(self.sim._now, _OUTSIDE, self._span)
        return self._quantile(window.values) if window.values else None

    def summary(self, target: str) -> Optional[DelayEstimate]:
        p95 = self.estimate(target)
        if p95 is None:
            return None
        values = [sample for _, sample in self._windows[target].samples]
        return DelayEstimate(
            target=target,
            p95=p95,
            mean=sum(values) / len(values),
            samples=len(values),
        )

    def estimates(self) -> Dict[str, float]:
        """Current p95 estimate for every target with data."""
        return self._estimates(_OUTSIDE)


class ClientDelayView:
    """Client-side cache of the local proxy's estimates.

    Refreshes every ``refresh_interval`` seconds; between refreshes the
    estimates are stale, matching the paper's client behaviour.
    """

    def __init__(
        self,
        sim: Simulator,
        proxy: ProbeProxy,
        refresh_interval: float = 0.1,
    ) -> None:
        self._sim = sim
        self._proxy = proxy
        self._refresh_interval = refresh_interval
        self._cache: Dict[str, float] = {}
        #: The sequence number of the next refresh's event; the first
        #: refresh runs now, outside the event loop.
        self._sequence = _OUTSIDE
        self._refresh()

    def _refresh(self) -> None:
        sim = self._sim
        self._cache = self._proxy._estimates(self._sequence)
        sim.post(self._refresh_interval, self._refresh)
        self._sequence = sim._sequence

    def estimate(self, target: str) -> Optional[float]:
        """Cached p95 one-way delay to ``target`` (seconds), or None."""
        return self._cache.get(target)

    def max_estimate(self, targets: Iterable[str]) -> Optional[float]:
        """Largest cached estimate across ``targets``; None if any missing."""
        values = []
        for target in targets:
            value = self._cache.get(target)
            if value is None:
                return None
            values.append(value)
        return max(values) if values else None


class ProxyDirectory:
    """All proxies and client views in a deployment, keyed by datacenter."""

    def __init__(self) -> None:
        self._proxies: Dict[str, ProbeProxy] = {}
        self._views: Dict[str, ClientDelayView] = {}

    def add(self, proxy: ProbeProxy, view: ClientDelayView) -> None:
        self._proxies[proxy.datacenter] = proxy
        self._views[proxy.datacenter] = view

    def proxy(self, datacenter: str) -> ProbeProxy:
        return self._proxies[datacenter]

    def view(self, datacenter: str) -> ClientDelayView:
        return self._views[datacenter]

    def start_all(self) -> None:
        for proxy in self._proxies.values():
            proxy.start()
