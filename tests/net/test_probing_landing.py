"""When a probe reply lands in the proxy's window.

Probe replies get no arrival event: a read of the window first lands
every reply whose arrival event would have fired before the read.  The
delays here are binary fractions, so arrival times tie exactly.
"""

import numpy as np
import pytest

from repro.cluster import Node
from repro.faults import FaultInjector, FaultSchedule, server_crash
from repro.net import Network, azure_topology
from repro.net.delay import ParetoDelay
from repro.net.probing import ClientDelayView, ProbeProxy, ProbeTargetMixin
from repro.sim import Simulator

ONE_WAY = 0.125
#: A probe sent at 0 is answered at ONE_WAY and its reply arrives here.
REPLY_ARRIVAL = 2 * ONE_WAY


class Server(ProbeTargetMixin, Node):
    pass


class FixedDelay:
    def sample(self, a, b):
        return ONE_WAY


def build():
    """A proxy and a server in one datacenter (no bandwidth pipe), one
    probe round per second, so only the round at 0 answers early on."""
    sim = Simulator()
    net = Network(sim, azure_topology(), delay_model=FixedDelay())
    net.register(Server(sim, "s", "VA"))
    proxy = ProbeProxy(sim, net, "VA", ["s"], interval=1.0)
    return sim, net, proxy


def test_a_tied_reply_misses_a_refresh_scheduled_before_its_dispatch():
    sim, _, proxy = build()
    # Scheduled at 0 for REPLY_ARRIVAL, before the reply is dispatched
    # at ONE_WAY: its event would have fired after this refresh.
    view = ClientDelayView(sim, proxy, refresh_interval=REPLY_ARRIVAL)
    proxy.start()
    sim.run(until=REPLY_ARRIVAL)
    assert view.estimate("s") is None
    # A read from outside the event loop sees every reply arrived by now.
    assert proxy.estimate("s") == ONE_WAY


def test_a_tied_reply_lands_in_a_refresh_scheduled_after_its_dispatch():
    sim, _, proxy = build()
    views = []
    # Made at 3/16 s, after the dispatch at 1/8 s; its first refresh
    # from the event loop is at 3/16 + 1/16 = REPLY_ARRIVAL.
    sim.post(
        0.1875,
        lambda: views.append(
            ClientDelayView(sim, proxy, refresh_interval=0.0625)
        ),
    )
    proxy.start()
    sim.run(until=REPLY_ARRIVAL)
    assert views[0].estimate("s") == ONE_WAY


def test_a_refresh_before_the_arrival_instant_misses_the_reply():
    sim, _, proxy = build()
    view = ClientDelayView(sim, proxy, refresh_interval=0.0625)
    proxy.start()
    sim.run(until=REPLY_ARRIVAL - 0.0625)
    assert view.estimate("s") is None
    sim.run(until=REPLY_ARRIVAL)
    assert view.estimate("s") == ONE_WAY


def test_a_held_reply_lands_at_its_held_arrival():
    sim, net, proxy = build()
    # The server crashes after the probe reaches it: the reply it sends
    # at ONE_WAY is held until the recovery at 0.0625 + 0.3125 = 0.375.
    FaultInjector(
        sim, net, FaultSchedule([server_crash(0.0625, 0.3125, "s")])
    ).attach()
    view = ClientDelayView(sim, proxy, refresh_interval=0.0625)
    proxy.start()
    sim.run(until=0.3125)
    assert proxy.estimate("s") is None
    assert view.estimate("s") is None
    sim.run(until=0.375)
    # The refresh at 0.375 was scheduled at 0.3125, after the reply was
    # dispatched, so the reply lands before it.
    assert view.estimate("s") == ONE_WAY
    assert proxy.estimate("s") == ONE_WAY


def test_the_sorted_window_matches_a_sort_of_the_window():
    sim = Simulator()
    topo = azure_topology()
    rng = np.random.default_rng(1)
    net = Network(sim, topo, delay_model=ParetoDelay(topo, rng, cv=0.3))
    net.register(Server(sim, "s", "SG"))
    proxy = ProbeProxy(sim, net, "VA", ["s"])
    ClientDelayView(sim, proxy, refresh_interval=0.1)
    proxy.start()
    for until in (0.5, 1.3, 2.7):
        sim.run(until=until)
        proxy.estimate("s")
        window = proxy._windows["s"]
        assert window.values == sorted(s for _, s in window.samples)
        assert window.samples[-1][0] - window.samples[0][0] <= 1.0


def test_a_proxy_with_a_service_time_is_refused():
    sim, _, proxy = build()
    proxy.service.service_time = 0.001
    with pytest.raises(ValueError, match="service time"):
        proxy.start()
