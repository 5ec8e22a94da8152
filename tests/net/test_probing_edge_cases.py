"""Edge cases of the delay estimator."""

import numpy as np
import pytest

from repro.cluster import Clock, ClockConfig, Node
from repro.net import Network, azure_topology
from repro.net.probing import ProbeProxy, ProbeTargetMixin
from repro.sim import Simulator


class Server(ProbeTargetMixin, Node):
    pass


def test_estimate_tracks_a_delay_regime_change():
    """The sliding window forgets old samples: after delays change, the
    estimate converges to the new regime within ~a window."""
    sim = Simulator()
    topo = azure_topology()

    class SwitchableDelay:
        def __init__(self):
            self.extra = 0.0

        def sample(self, a, b):
            return topo.one_way(a, b) + self.extra

    model = SwitchableDelay()
    net = Network(sim, topo, delay_model=model)
    net.register(Server(sim, "s", "WA"))
    proxy = ProbeProxy(sim, net, "VA", ["s"])
    proxy.start()
    sim.run(until=2.0)
    before = proxy.estimate("s")
    model.extra = 0.020  # the path got 20 ms slower
    sim.run(until=4.5)
    after = proxy.estimate("s")
    assert after == pytest.approx(before + 0.020, abs=0.003)


@pytest.mark.parametrize("n", [1, 2, 19, 20, 21, 50, 101])
def test_estimate_is_the_p95_index_of_the_sorted_window(n):
    """Of a window of ``n`` distinct samples, sorted, the estimate is
    ``values[min(n - 1, int(0.95 * n))]``."""
    sim = Simulator()
    net = Network(sim, azure_topology())
    net.register(Server(sim, "s", "SG"))
    proxy = ProbeProxy(sim, net, "VA", ["s"])
    order = np.random.default_rng(n).permutation(n)
    samples = [0.1 + 0.001 * int(k) for k in order]
    window = proxy._windows["s"]
    for sequence, sample in enumerate(samples):
        # (arrival, sequence, sample), as a probe reply leaves it: every
        # one arrived at 0, so a read at 0 lands them all.
        window.pending.append((0.0, sequence, sample))
    values = sorted(samples)
    assert proxy.estimate("s") == values[min(n - 1, int(0.95 * n))]
    assert len(window.values) == n


def test_skewed_proxy_clock_cancels_out_of_round_trip():
    """The proxy's own skew shifts every sample equally; the *relative*
    estimate between two servers is unaffected."""
    sim = Simulator()
    topo = azure_topology()
    net = Network(sim, topo)
    net.register(Server(sim, "near", "WA"))
    net.register(Server(sim, "far", "SG"))
    proxy = ProbeProxy(sim, net, "VA", ["near", "far"])
    skewed = Clock(sim, ClockConfig(max_offset=0.0))
    skewed._offset = 0.050  # wildly skewed proxy
    proxy.clock = skewed
    proxy.start()
    sim.run(until=2.0)
    difference = proxy.estimate("far") - proxy.estimate("near")
    expected = topo.one_way("VA", "SG") - topo.one_way("VA", "WA")
    assert difference == pytest.approx(expected, abs=0.002)
