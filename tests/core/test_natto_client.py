"""The Natto client protocol's per-attempt bookkeeping."""

from repro.harness import ExperimentSettings, make_system, run_experiment
from repro.workloads import YcsbTWorkload


def test_finished_attempts_leave_no_abort_reasons():
    """A read-and-prepare reply that lands after its attempt ended (the
    first refusal or the decision ended it) must not record an abort
    reason: the driver has already consumed the attempt's entry, so a
    late one would stay in ``_abort_reasons`` for good."""
    system = make_system("Natto-RECSF")
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
    assert any(record.abort_reasons for record in result.stats.records)
    assert clients
    assert all(not client._abort_reasons for client in clients)
