"""The fault injector: per-kind semantics and deterministic logging.

Uses a two-node Echo network so each fault's effect on delivery timing
is directly observable, plus a small Raft group for the leader-pause
hook.
"""

import pytest

from repro.cluster import Node
from repro.cluster.placement import PartitionPlacement
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    blackhole,
    clock_skew,
    delay_storm,
    leader_pause,
    link_partition,
    loss_burst,
    region_partition,
    server_crash,
)
from repro.net import Network, azure_topology
from repro.raft import ReplicationGroup, Role
from repro.sim import Simulator


class Echo(Node):
    def __init__(self, sim, name, dc, **kwargs):
        super().__init__(sim, name, dc, **kwargs)
        self.received = []

    def handle_message(self, message):
        self.received.append((message.method, self.sim.now))


def build(schedule, seed=0):
    sim = Simulator()
    net = Network(sim, azure_topology())
    a = net.register(Echo(sim, "a", "VA"))
    b = net.register(Echo(sim, "b", "SG"))
    injector = FaultInjector(sim, net, schedule, seed=seed).attach()
    return sim, net, a, b, injector


VA_SG_ONE_WAY = 0.107  # seconds, from the Azure topology


def test_region_partition_holds_messages_until_heal():
    schedule = FaultSchedule(
        (region_partition(1.0, 4.0, ["VA"], ["SG", "WA", "PR", "NSW"]),)
    )
    sim, net, a, b, injector = build(schedule)
    sim.schedule(2.0, lambda: net.send(a, "b", "cut", {}))
    sim.schedule(8.0, lambda: net.send(a, "b", "clear", {}))
    sim.run()
    arrivals = dict(b.received)
    # Sent mid-partition: arrives at heal time (5.0), not 2.107.
    assert arrivals["cut"] == pytest.approx(5.0, abs=1e-9)
    # Sent after heal: normal propagation again.
    assert arrivals["clear"] == pytest.approx(8.0 + VA_SG_ONE_WAY, abs=0.005)


def test_partition_preserves_fifo_order_across_heal():
    schedule = FaultSchedule(
        (region_partition(1.0, 4.0, ["VA"], ["SG", "WA", "PR", "NSW"]),)
    )
    sim, net, a, b, injector = build(schedule)

    def send_burst():
        for i in range(3):
            net.send(a, "b", f"m{i}", {})

    sim.schedule(2.0, send_burst)
    sim.run()
    assert [method for method, _ in b.received] == ["m0", "m1", "m2"]


def test_link_partition_only_affects_named_pair():
    schedule = FaultSchedule((link_partition(0.0, 5.0, "VA", "SG"),))
    sim = Simulator()
    net = Network(sim, azure_topology())
    a = net.register(Echo(sim, "a", "VA"))
    b = net.register(Echo(sim, "b", "SG"))
    c = net.register(Echo(sim, "c", "WA"))
    FaultInjector(sim, net, schedule).attach()
    sim.schedule(1.0, lambda: net.send(a, "b", "held", {}))
    sim.schedule(1.0, lambda: net.send(a, "c", "fine", {}))
    sim.run()
    assert dict(b.received)["held"] == pytest.approx(5.0, abs=1e-9)
    assert dict(c.received)["fine"] < 1.2


def test_delay_storm_scales_delivery():
    schedule = FaultSchedule((delay_storm(0.0, 10.0, factor=3.0, extra=0.01),))
    sim, net, a, b, injector = build(schedule)
    sim.schedule(1.0, lambda: net.send(a, "b", "slow", {}))
    sim.run()
    assert dict(b.received)["slow"] == pytest.approx(
        1.0 + 3.0 * VA_SG_ONE_WAY + 0.01, abs=0.005
    )


def test_loss_burst_only_adds_nonnegative_rto_multiples():
    schedule = FaultSchedule((loss_burst(0.0, 100.0, loss_rate=0.5, rto=0.2),))
    sim, net, a, b, injector = build(schedule)
    for i in range(50):
        sim.schedule(float(i), lambda i=i: net.send(a, "b", f"m{i}", {}))
    sim.run()
    assert len(b.received) == 50
    penalties = []
    for method, at in b.received:
        sent = float(method[1:])
        # Never early, never dropped; penalty is retransmission latency
        # (possibly compounded by the per-pair FIFO floor).
        penalty = at - sent - VA_SG_ONE_WAY
        assert penalty >= -1e-9
        penalties.append(penalty)
    assert any(p >= 0.2 - 1e-9 for p in penalties)  # some retransmissions
    assert any(p < 0.2 for p in penalties)  # and some clean deliveries


def test_blackhole_drops_and_counts():
    schedule = FaultSchedule((blackhole(0.0, 5.0, src="a", dst="b"),))
    sim, net, a, b, injector = build(schedule)
    sim.schedule(1.0, lambda: net.send(a, "b", "gone", {}))
    sim.schedule(6.0, lambda: net.send(a, "b", "kept", {}))
    sim.run()
    assert [method for method, _ in b.received] == ["kept"]
    assert net.messages_dropped == 1


def test_server_crash_holds_both_directions_and_stalls_cpu():
    schedule = FaultSchedule((server_crash(1.0, 3.0, "b"),))
    sim = Simulator()
    net = Network(sim, azure_topology())
    a = net.register(Echo(sim, "a", "VA"))
    b = net.register(Echo(sim, "b", "SG", service_time=1e-4))
    FaultInjector(sim, net, schedule).attach()
    sim.schedule(2.0, lambda: net.send(a, "b", "inbound", {}))
    sim.schedule(2.0, lambda: net.send(b, "a", "outbound", {}))
    sim.run()
    # Held until recovery at t=4, then serviced after the CPU stall.
    assert dict(b.received)["inbound"] >= 4.0
    assert dict(a.received)["outbound"] >= 4.0
    assert b.service._busy_until >= 4.0


def test_clock_skew_applies_and_clears_symmetrically():
    schedule = FaultSchedule((clock_skew(1.0, 2.0, "a", 0.5),))
    sim, net, a, b, injector = build(schedule)
    baseline = a.clock.offset
    readings = {}
    sim.schedule(1.5, lambda: readings.update(during=a.clock.offset))
    sim.schedule(4.0, lambda: readings.update(after=a.clock.offset))
    sim.run()
    assert readings["during"] == pytest.approx(baseline + 0.5)
    assert readings["after"] == pytest.approx(baseline)


def test_leader_pause_suppresses_heartbeats_then_resumes():
    sim = Simulator()
    net = Network(sim, azure_topology())
    group = ReplicationGroup(
        sim,
        net,
        PartitionPlacement(0, ("VA", "WA", "PR")),
    )
    leader = group.leader
    schedule = FaultSchedule((leader_pause(1.0, 2.0, leader.name),))
    FaultInjector(sim, net, schedule).attach()
    sent_during = []
    sent_after = []
    sim.schedule(1.5, lambda: sent_during.append(net.messages_sent))
    sim.schedule(2.5, lambda: sent_during.append(net.messages_sent))
    sim.schedule(3.5, lambda: sent_after.append(net.messages_sent))
    sim.schedule(4.5, lambda: sent_after.append(net.messages_sent))
    sim.run(until=5.0)
    assert leader.role is Role.LEADER
    assert not leader.heartbeats_paused
    # No heartbeat traffic while paused; traffic resumes afterwards.
    assert sent_during[1] == sent_during[0]
    assert sent_after[1] > sent_after[0]


def test_fault_log_is_deterministic_and_fingerprinted():
    schedule = FaultSchedule(
        (
            loss_burst(0.5, 2.0, loss_rate=0.3, rto=0.1),
            region_partition(1.0, 2.0, ["VA"], ["SG", "WA", "PR", "NSW"]),
        )
    )

    def run_once():
        sim, net, a, b, injector = build(schedule, seed=9)
        for i in range(10):
            sim.schedule(0.3 * i, lambda i=i: net.send(a, "b", f"m{i}", {}))
        sim.run()
        return injector

    first = run_once()
    second = run_once()
    assert first.log_lines() == second.log_lines()
    assert first.fingerprint() == second.fingerprint()
    # Begin/end transitions for both events, in time order.
    phases = [(entry["phase"], entry["kind"]) for entry in first.log]
    assert phases == [
        ("begin", "loss_burst"),
        ("begin", "region_partition"),
        ("end", "loss_burst"),
        ("end", "region_partition"),
    ]


def test_injector_is_inert_without_active_windows():
    schedule = FaultSchedule((delay_storm(5.0, 1.0, factor=10.0),))
    sim, net, a, b, injector = build(schedule)
    assert injector.active is False
    sim.schedule(0.5, lambda: net.send(a, "b", "early", {}))
    sim.run(until=2.0)
    assert dict(b.received)["early"] == pytest.approx(
        0.5 + VA_SG_ONE_WAY, abs=0.005
    )


def test_attach_twice_rejected():
    schedule = FaultSchedule()
    sim, net, a, b, injector = build(schedule)
    with pytest.raises(RuntimeError):
        injector.attach()
