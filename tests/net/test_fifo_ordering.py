"""Per-connection FIFO delivery (TCP semantics) under jitter."""

import numpy as np

from repro.cluster import Node
from repro.net import Network, azure_topology
from repro.net.delay import ParetoDelay
from repro.sim import Simulator


class Sink(Node):
    def __init__(self, sim, name, dc):
        super().__init__(sim, name, dc)
        self.received = []

    def handle_m(self, payload, src):
        self.received.append(payload["n"])


def build(cv=0.3, seed=0):
    sim = Simulator()
    topo = azure_topology()
    net = Network(
        sim, topo, delay_model=ParetoDelay(topo, np.random.default_rng(seed), cv)
    )
    a = net.register(Sink(sim, "a", "VA"))
    b = net.register(Sink(sim, "b", "SG"))
    return sim, net, a, b


def test_same_pair_messages_never_reorder():
    sim, net, a, b = build()
    for i in range(300):
        net.send(a, "b", "m", {"n": i})
    sim.run()
    assert b.received == list(range(300))


def test_fifo_holds_across_seeds_and_heavy_jitter():
    for seed in range(5):
        sim, net, a, b = build(cv=0.4, seed=seed)

        def staggered():
            for i in range(100):
                net.send(a, "b", "m", {"n": i})
                yield 0.001

        sim.spawn(staggered())
        sim.run()
        assert b.received == list(range(100))


def test_different_pairs_are_independent():
    sim, net, a, b = build()
    c = net.register(Sink(sim, "c", "SG"))
    # Saturate a->b ordering with a huge early message delay via jitter;
    # a->c deliveries must not be held behind a->b's.
    for i in range(50):
        net.send(a, "b", "m", {"n": i})
        net.send(a, "c", "m", {"n": i})
    sim.run()
    assert b.received == list(range(50))
    assert c.received == list(range(50))


def test_replies_are_fifo_too():
    sim, net, a, b = build()

    class Echo(Sink):
        def handle_echo(self, payload, src):
            return payload["n"]

    echo = net.register(Echo(sim, "echo", "SG"))
    results = []
    for i in range(100):
        net.call(a, "echo", "echo", {"n": i}).add_done_callback(
            lambda f: results.append(f.value)
        )
    sim.run()
    assert results == list(range(100))
