"""Tests for the client driver's retry loop and event routing."""

import numpy as np

from repro.net.network import Network
from repro.net.payload import DecisionEvent
from repro.net.topology import azure_topology
from repro.sim import Simulator
from repro.systems.base import TransactionSystem
from repro.systems.client import ClientDriver
from repro.txn.priority import Priority
from repro.txn.stats import StatsCollector, TxnOutcome
from repro.txn.transaction import TransactionSpec


class ScriptedSystem(TransactionSystem):
    """Fails each transaction a scripted number of times, then commits."""

    name = "scripted"

    def __init__(self, failures_before_commit=0, attempt_cost=0.1):
        self.failures = failures_before_commit
        self.cost = attempt_cost
        self.attempts_seen = []

    def setup(self, cluster):
        pass

    def execute(self, client, spec, attempt):
        self.attempts_seen.append((spec.txn_id, attempt))
        yield self.cost
        return attempt >= self.failures


def build(system):
    sim = Simulator()
    net = Network(sim, azure_topology())
    stats = StatsCollector()
    client = ClientDriver(sim, net, "c1", "VA", system, stats)
    return sim, client, stats


def spec(txn_id="t1"):
    return TransactionSpec(
        txn_id, ("k",), ("k",), compute_writes=lambda r: {"k": "v"}
    )


def test_success_on_first_attempt():
    system = ScriptedSystem(failures_before_commit=0)
    sim, client, stats = build(system)
    client.submit(spec())
    sim.run()
    (record,) = stats.records
    assert record.committed and record.retries == 0
    assert record.latency == 0.1


def test_retries_until_success_and_latency_includes_them():
    system = ScriptedSystem(failures_before_commit=3)
    sim, client, stats = build(system)
    client.submit(spec())
    sim.run()
    (record,) = stats.records
    assert record.committed
    assert record.retries == 3
    assert record.latency == 0.4  # four attempts at 0.1 each
    assert [a for _, a in system.attempts_seen] == [0, 1, 2, 3]


def test_exhausting_retry_budget_marks_failed():
    system = ScriptedSystem(failures_before_commit=10**9)
    sim, client, stats = build(system)
    client.max_retries = 5
    client.submit(spec())
    sim.run()
    (record,) = stats.records
    assert record.outcome is TxnOutcome.FAILED
    assert record.retries == 5
    assert len(system.attempts_seen) == 6


def test_inflight_counter_tracks_open_transactions():
    system = ScriptedSystem(failures_before_commit=0, attempt_cost=1.0)
    sim, client, stats = build(system)
    client.submit(spec("a"))
    client.submit(spec("b"))
    sim.run(until=0.5)
    assert client.inflight == 2
    sim.run()
    assert client.inflight == 0


def test_start_time_registry_cleaned_up():
    system = ScriptedSystem(failures_before_commit=1)
    sim, client, stats = build(system)
    client.submit(spec())
    sim.run(until=0.05)
    assert "t1" in client.txn_start_times
    sim.run()
    assert client.txn_start_times == {}


def test_event_routing_by_attempt_id():
    system = ScriptedSystem()
    sim, client, stats = build(system)
    seen = []
    client.register_attempt("t1.0", lambda p, src: seen.append(p))
    client.handle_txn_event(DecisionEvent("t1.0", True), "someone")
    client.handle_txn_event(DecisionEvent("other", True), "someone")
    assert [p.as_dict() for p in seen] == [
        DecisionEvent("t1.0", True).as_dict()
    ]
    client.unregister_attempt("t1.0")
    client.handle_txn_event(DecisionEvent("t1.0", False), "someone")
    assert len(seen) == 1


def test_open_loop_submission_rate():
    system = ScriptedSystem(attempt_cost=0.01)
    sim, client, stats = build(system)

    class OneKeyWorkload:
        count = 0

        def next_transaction(self, client_name):
            OneKeyWorkload.count += 1
            return spec(f"w{OneKeyWorkload.count}")

    rng = np.random.default_rng(0)
    client.run_open_loop(OneKeyWorkload(), 100.0, until=10.0, rng=rng)
    sim.run(until=12.0)
    # Poisson arrivals at 100/s for 10 s: ~1000 transactions (loose CI).
    assert 800 < len(stats.records) < 1200


def test_records_preserve_priority_and_type():
    system = ScriptedSystem()
    sim, client, stats = build(system)
    client.submit(
        TransactionSpec(
            "tp",
            ("k",),
            (),
            priority=Priority.HIGH,
            compute_writes=lambda r: {},
            txn_type="special",
        )
    )
    sim.run()
    (record,) = stats.records
    assert record.priority is Priority.HIGH
    assert record.txn_type == "special"
