"""Tests for the client driver's retry loop and event routing."""

import numpy as np
import pytest

from repro.harness import (
    SYSTEM_FACTORIES,
    ExperimentSettings,
    make_system,
    run_experiment,
)
from repro.net.network import Network
from repro.net.payload import (
    DecisionEvent,
    DecisionEventReason,
    ReadOk,
    Refusal,
    WoundEvent,
)
from repro.net.topology import azure_topology
from repro.obs.abort import AbortReason
from repro.sim import Simulator
from repro.systems.base import TransactionSystem
from repro.systems.client import Attempt, ClientDriver
from repro.txn.priority import Priority
from repro.txn.stats import StatsCollector, TxnOutcome
from repro.txn.transaction import TransactionSpec
from repro.workloads import YcsbTWorkload


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
        self.attempts_seen.append((spec.txn_id, attempt.number))
        yield self.cost
        return attempt.number >= self.failures


class DecidedSystem(TransactionSystem):
    """Waits for each attempt's decision event; records other events."""

    name = "decided"

    def __init__(self):
        self.attempts = []
        self.events = []

    def setup(self, cluster):
        pass

    def execute(self, client, spec, attempt):
        self.attempts.append(attempt)
        attempt.on_event = lambda payload, src: self.events.append(
            (payload.txn, payload.kind)
        )
        committed = yield attempt.decision
        return committed


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
    system = DecidedSystem()
    sim, client, stats = build(system)
    client.submit(spec())
    sim.run()
    (first,) = system.attempts
    assert client._attempts == {"t1.0": first}

    # Kinds other than the decision reach the attempt's handler.
    client.handle_txn_event(WoundEvent("t1.0", "c2"), "someone")
    assert system.events == [("t1.0", "wound")]

    # An abort decision resolves the attempt; the first reason wins.
    first.note_abort(AbortReason.PREEMPTED)
    client.handle_txn_event(
        DecisionEventReason("t1.0", False, "OCC_CONFLICT"), "someone"
    )
    assert first.decision.done and first.decision.value is False
    assert first.reason == AbortReason.PREEMPTED.value

    # The driver retires the attempt and retries with a fresh one.
    sim.run()
    assert first.ended
    assert [a.number for a in system.attempts] == [0, 1]
    second = system.attempts[1]
    assert client._attempts == {"t1.1": second}

    # Events for an ended or unknown attempt are dropped.
    client.handle_txn_event(WoundEvent("t1.0", "c2"), "someone")
    client.handle_txn_event(DecisionEvent("other", True), "someone")
    assert system.events == [("t1.0", "wound")]
    assert not second.decision.done

    client.handle_txn_event(
        DecisionEventReason("t1.1", False, "OCC_CONFLICT"), "someone"
    )
    assert second.reason == AbortReason.OCC_CONFLICT.value
    sim.run()
    third = system.attempts[2]
    client.handle_txn_event(DecisionEvent("t1.2", True), "someone")
    assert third.reason is None
    sim.run()
    (record,) = stats.records
    assert record.committed and record.retries == 2
    assert record.abort_reasons == ("PREEMPTED", "OCC_CONFLICT")
    assert client._attempts == {} and client.inflight == 0


def test_refused_notes_the_first_refusal():
    attempt = Attempt("t1.0", 0)
    assert not attempt.refused([ReadOk({}), ReadOk({})])
    assert attempt.reason is None
    assert attempt.refused(
        [ReadOk({}), Refusal("OCC_CONFLICT"), Refusal("PREEMPTED")]
    )
    assert attempt.reason == "OCC_CONFLICT"


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


@pytest.mark.parametrize("name", sorted(SYSTEM_FACTORIES))
def test_no_attempt_outlives_a_settled_run(name):
    """Once every transaction finished, no client holds an attempt: each
    ``execute`` returned and the driver retired its attempt, whatever
    replies or events arrived for it later."""
    system = make_system(name)
    clients = []
    created = system.on_client_created

    def capture(client):
        clients.append(client)
        created(client)

    system.on_client_created = capture
    result = run_experiment(
        lambda: system,
        lambda rng: YcsbTWorkload(rng, num_keys=600),
        20,
        ExperimentSettings(duration=2.0, trim=0.5, drain=40.0, seed=0),
    )
    assert result.unfinished == 0
    assert clients
    assert all(not client._attempts for client in clients)
    assert all(client.inflight == 0 for client in clients)
