"""Fuzz harness: seeded determinism, shrinking, and replay artifacts.

The determinism contract is the backbone of the whole fault layer: the
same seed must produce a byte-identical fault event log and an
identical failure fingerprint on replay, or failing seeds would not be
actionable.
"""

import gc
import json

import pytest

from repro import fuzz

from repro.faults import FaultSchedule, loss_burst
from repro.systems.twopl.server import TwoPLParticipant
from repro.verify.fuzz import (
    FUZZ_SYSTEMS,
    ScenarioSpec,
    load_artifact,
    replay_artifact,
    run_scenario,
    shrink,
    write_failure_artifact,
)

from tests.helpers import collector, live_simulators


def test_same_seed_is_byte_identical():
    spec = ScenarioSpec(system="Natto-RECSF", seed=5)
    first = run_scenario(spec)
    second = run_scenario(spec)
    assert first.ok and second.ok
    assert first.fault_log == second.fault_log  # byte-identical event log
    assert first.fault_fingerprint == second.fault_fingerprint
    assert first.record_fingerprint == second.record_fingerprint
    assert first.log_line() == second.log_line()


def test_different_seeds_diverge():
    a = run_scenario(ScenarioSpec(system="2PL+2PC", seed=1))
    b = run_scenario(ScenarioSpec(system="2PL+2PC", seed=2))
    assert a.spec.schedule != b.spec.schedule


def test_spec_json_round_trip():
    spec = ScenarioSpec(
        system="TAPIR",
        seed=11,
        schedule=FaultSchedule((loss_burst(3.0, 2.0, loss_rate=0.1),)),
    )
    restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert restored == spec


def test_explicit_schedule_is_used_verbatim():
    schedule = FaultSchedule((loss_burst(3.0, 2.0, loss_rate=0.1),))
    outcome = run_scenario(
        ScenarioSpec(system="Carousel Basic", seed=3, schedule=schedule)
    )
    assert outcome.ok
    assert outcome.spec.schedule == schedule


@pytest.mark.parametrize("system", FUZZ_SYSTEMS)
def test_every_family_survives_a_seeded_scenario(system):
    outcome = run_scenario(ScenarioSpec(system=system, seed=8))
    assert outcome.ok, outcome.report.summary()
    assert outcome.committed == outcome.submitted


def _broken_on_apply(self, payload, index):
    kind = payload[0]
    if kind == "prepare":
        _, txn, writes = payload
        self.pending_writes[txn] = writes
    elif kind == "commit":
        _, txn = payload
        self.pending_writes.pop(txn, None)  # drops the writes on the floor


def test_failing_seed_shrinks_and_replays_identically(tmp_path, monkeypatch):
    monkeypatch.setattr(TwoPLParticipant, "on_apply", _broken_on_apply)
    spec = ScenarioSpec(system="2PL+2PC", seed=4)
    outcome = run_scenario(spec)
    assert not outcome.ok

    # The injected bug is fault-independent, so shrinking must strip the
    # schedule down to nothing (a minimal reproducer).
    minimal_spec, minimal_outcome, runs = shrink(spec)
    assert len(minimal_spec.schedule) == 0
    assert not minimal_outcome.ok
    assert runs >= 1

    # The artifact round-trips and replays to the identical failure.
    path = tmp_path / "failure.json"
    write_failure_artifact(minimal_outcome, path)
    assert load_artifact(path) == minimal_spec
    replayed = replay_artifact(path)
    assert not replayed.ok
    assert replayed.fault_fingerprint == minimal_outcome.fault_fingerprint
    assert replayed.record_fingerprint == minimal_outcome.record_fingerprint
    assert {v.invariant for v in replayed.violations} == {
        v.invariant for v in minimal_outcome.violations
    }


def test_shrink_rejects_passing_scenarios():
    with pytest.raises(ValueError):
        shrink(ScenarioSpec(system="2PL+2PC", seed=1))


def test_the_cli_frees_each_scenario_s_deployment(tmp_path):
    # A deployment is a reference cycle through its Simulator.  With
    # the collector off, only the CLI's own collections can free it.
    with collector(enabled=False):
        gc.collect()
        before = live_simulators()
        assert fuzz.main([
            "--scenarios", "2", "--systems", "2PL+2PC",
            "--out", str(tmp_path),
        ]) == 0
        assert live_simulators() == before
