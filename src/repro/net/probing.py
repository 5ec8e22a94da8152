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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Deque, Dict, Iterable, Optional, Tuple

from repro.cluster.node import Node
from repro.net.network import Network
from repro.net.payload import Probe, ProbeReply
from repro.sim import Simulator


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
        self._window = window
        self._percentile = percentile
        # target -> deque of (sim_time, delay_sample)
        self._samples: Dict[str, Deque[Tuple[float, float]]] = {
            t: deque() for t in self._targets
        }
        network.register(self)

    def start(self) -> None:
        """Begin the periodic probe loop."""
        self._probe_all()

    def add_target(self, target: str) -> None:
        if target not in self._samples:
            self._targets.append(target)
            self._samples[target] = deque()

    def _probe_all(self) -> None:
        # One round reads the clock once and sends every target the same
        # payload: payloads are read-only once sent.
        sent_clock = self.clock.now()
        probe = Probe(sent_clock)
        call = self._network.call
        for target in self._targets:
            call(self, target, "probe", probe).add_done_callback(
                partial(self._record, target, sent_clock)
            )
        # The probe loop runs for the whole simulation and is never
        # cancelled, so it takes the kernel's timerless fast path.
        self.sim.post(self._interval, self._probe_all)

    def _record(self, target: str, sent_clock: float, reply_future) -> None:
        sample = reply_future.value.server_time - sent_clock
        window = self._samples[target]
        now = self.sim._now
        window.append((now, sample))
        cutoff = now - self._window
        while window and window[0][0] < cutoff:
            window.popleft()

    # ------------------------------------------------------------------
    # Queries

    def estimate(self, target: str) -> Optional[float]:
        """p95 one-way delay (seconds, skew-inclusive) or None if no data."""
        window = self._samples.get(target)
        if not window:
            return None
        values = sorted([sample for _, sample in window])
        index = min(
            len(values) - 1,
            int(len(values) * self._percentile / 100.0),
        )
        return values[index]

    def summary(self, target: str) -> Optional[DelayEstimate]:
        window = self._samples.get(target)
        if not window:
            return None
        values = [sample for _, sample in window]
        return DelayEstimate(
            target=target,
            p95=self.estimate(target) or 0.0,
            mean=sum(values) / len(values),
            samples=len(values),
        )

    def estimates(self) -> Dict[str, float]:
        """Current p95 estimate for every target with data."""
        out = {}
        for target in self._targets:
            value = self.estimate(target)
            if value is not None:
                out[target] = value
        return out


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
        self._refresh()

    def _refresh(self) -> None:
        self._cache = self._proxy.estimates()
        self._sim.post(self._refresh_interval, self._refresh)

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
