"""Tests for message delivery and RPC."""

import numpy as np
import pytest

from repro.cluster import Node
from repro.net import LossConfig, Network, azure_topology
from repro.sim import Future, Simulator


class Echo(Node):
    """Test server: records one-way messages, echoes RPCs."""

    def __init__(self, sim, name, dc, **kwargs):
        super().__init__(sim, name, dc, **kwargs)
        self.received = []

    def handle_ping(self, payload, src):
        self.received.append((payload, self.sim.now))

    def handle_echo(self, payload, src):
        return {"echoed": payload["x"], "from": src}

    def handle_deferred(self, payload, src):
        future = Future()
        self.sim.schedule(payload["wait"], lambda: future.set_result("later"))
        return future


def build(topology=None, loss=LossConfig(), loss_rng=None):
    sim = Simulator()
    topo = topology or azure_topology()
    net = Network(sim, topo, loss=loss, loss_rng=loss_rng)
    return sim, net


def test_one_way_message_delivered_after_propagation():
    sim, net = build()
    a = net.register(Echo(sim, "a", "VA"))
    b = net.register(Echo(sim, "b", "SG"))
    net.send(a, "b", "ping", {"x": 1})
    sim.run()
    assert len(b.received) == 1
    payload, at = b.received[0]
    assert payload == {"x": 1}
    # One-way VA->SG is 107 ms.
    assert at == pytest.approx(0.107, abs=0.005)


def test_rpc_round_trip_takes_full_rtt():
    sim, net = build()
    a = net.register(Echo(sim, "a", "VA"))
    net.register(Echo(sim, "b", "SG"))
    done_at = []
    future = net.call(a, "b", "echo", {"x": 42})
    future.add_done_callback(lambda f: done_at.append(sim.now))
    sim.run()
    assert future.value["echoed"] == 42
    assert done_at[0] == pytest.approx(0.214, abs=0.005)


def test_rpc_handler_may_return_future():
    sim, net = build()
    a = net.register(Echo(sim, "a", "VA"))
    net.register(Echo(sim, "b", "WA"))
    future = net.call(a, "b", "deferred", {"wait": 0.5})
    sim.run()
    assert future.value == "later"
    # RTT 67ms + 500ms server-side wait.
    assert sim.now >= 0.5 + 0.067 - 0.01


def test_intra_dc_messages_are_fast():
    sim, net = build()
    a = net.register(Echo(sim, "a", "VA"))
    net.register(Echo(sim, "b", "VA"))
    future = net.call(a, "b", "echo", {"x": 1})
    sim.run()
    assert future.done
    assert sim.now < 0.002


def test_duplicate_registration_rejected():
    sim, net = build()
    net.register(Echo(sim, "a", "VA"))
    with pytest.raises(ValueError):
        net.register(Echo(sim, "a", "WA"))


def test_service_time_delays_handling_and_queues():
    sim, net = build()
    a = net.register(Echo(sim, "a", "VA"))
    b = net.register(Echo(sim, "b", "VA", service_time=0.010))
    net.send(a, "b", "ping", {})
    net.send(a, "b", "ping", {})
    sim.run()
    t1 = b.received[0][1]
    t2 = b.received[1][1]
    # Second message waits for the first's service time.
    assert t2 - t1 == pytest.approx(0.010, abs=1e-6)


def test_loss_requires_rng():
    with pytest.raises(ValueError):
        build(loss=LossConfig(loss_rate=0.01))


def test_loss_inflates_latency_tail():
    loss = LossConfig(loss_rate=0.3, rto=0.2)
    sim, net = build(loss=loss, loss_rng=np.random.default_rng(0))
    a = net.register(Echo(sim, "a", "VA"))
    b = net.register(Echo(sim, "b", "WA"))
    for i in range(200):
        net.send(a, "b", "ping", {})
    sim.run()
    times = [at for _, at in b.received]
    # With 30% loss some messages must have paid at least one RTO.
    assert max(times) > 0.2


def test_bandwidth_pipe_serializes_large_messages():
    # Tiny capacity: 10 KB/s; two ~0.6KB messages must queue.
    sim, net = build(
        loss=LossConfig(loss_rate=0.0, link_capacity_bytes_per_s=1e4)
    )
    a = net.register(Echo(sim, "a", "VA"))
    b = net.register(Echo(sim, "b", "WA"))
    big = {"data": "x" * 500}
    net.send(a, "b", "ping", dict(big))
    net.send(a, "b", "ping", dict(big))
    sim.run()
    t1, t2 = b.received[0][1], b.received[1][1]
    # Transmission time of one message is ~62 ms at 10 KB/s.
    assert t2 - t1 > 0.05


def test_network_counts_traffic():
    sim, net = build()
    a = net.register(Echo(sim, "a", "VA"))
    net.register(Echo(sim, "b", "WA"))
    net.send(a, "b", "ping", {"k": "v"})
    sim.run()
    assert net.messages_sent == 1
    assert net.bytes_sent > 100  # header alone is 120 bytes


def test_a_method_without_a_handler_fails_the_run():
    sim, net = build()
    a = net.register(Echo(sim, "a", "VA"))
    net.register(Echo(sim, "b", "WA"))
    net.send(a, "b", "unknown", {})
    with pytest.raises(AttributeError, match="handle_unknown"):
        sim.run()


def test_reply_to_an_already_resolved_future_is_ignored():
    sim, net = build()
    a = net.register(Echo(sim, "a", "VA"))
    net.register(Echo(sim, "b", "WA"))
    future = net.call(a, "b", "echo", {"x": 1})
    future.set_result("timed out")
    sim.run()
    assert net.messages_sent == 2  # the reply still travelled
    assert future.value == "timed out"


def test_send_to_a_returning_handler_sends_no_reply():
    sim, net = build()
    a = net.register(Echo(sim, "a", "VA"))
    net.register(Echo(sim, "b", "WA"))
    net.send(a, "b", "echo", {"x": 1})
    sim.run()
    assert net.messages_sent == 1


class ScriptedFaults:
    """A fault state returning a scripted (extra delay, floor) per message."""

    active = True

    def __init__(self, script):
        self._script = list(script)

    def route(self, src, dst, src_dc, dst_dc, delay):
        extra, floor = self._script.pop(0)
        return delay + extra, floor


def test_fifo_floor_holds_under_a_fault_floor():
    sim, net = build(loss=LossConfig(link_capacity_bytes_per_s=float("inf")))
    a = net.register(Echo(sim, "a", "VA"))
    b = net.register(Echo(sim, "b", "WA"))
    one_way = 0.067 / 2
    net.set_faults(ScriptedFaults([(1.0, 0.0), (0.0, 0.5), (0.0, 2.0)]))
    for name in ("m1", "m2", "m3"):
        net.send(a, "b", "ping", {"m": name})
    sim.run()
    got = [(payload["m"], at) for payload, at in b.received]
    assert [method for method, _ in got] == ["m1", "m2", "m3"]
    # m2's fault floor (0.5 s) is below m1's arrival, so the link's FIFO
    # floor holds it behind m1; m3's fault floor is above both.
    assert got[0][1] == pytest.approx(1.0 + one_way)
    assert got[1][1] == got[0][1]
    assert got[2][1] == 2.0
