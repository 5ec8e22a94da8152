"""Every kernel event of a deployment is posted through the four posting
methods.

The benchmark's traced mode (``perfbench/layers.py``) counts events as
calls to ``Simulator.schedule``/``schedule_at``/``post``/``post_at``
and reports them as ``sim.events_per_commit``.  A component that put
entries in the heap some other way would make that count wrong while
every fingerprint still passes, so this test counts the calls on a
small deployment run and checks them against the kernel's own totals.
"""

from collections import Counter

import pytest

from repro.harness import ExperimentSettings, make_system, run_experiment
from repro.sim import Simulator
from repro.workloads import YcsbTWorkload

POSTING = ("schedule", "schedule_at", "post", "post_at")


@pytest.mark.parametrize("system", ["Natto-RECSF", "2PL+2PC"])
def test_posting_calls_account_for_every_event(monkeypatch, system):
    calls = Counter()
    for name in POSTING:
        def counted(*args, _original=getattr(Simulator, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(Simulator, name, counted)
    result = run_experiment(
        lambda: make_system(system),
        lambda rng: YcsbTWorkload(rng, num_keys=1_000),
        100,
        ExperimentSettings(duration=2.0, trim=0.5, drain=0.5),
    )
    sim = result.system.cluster.sim
    cancelled = sim._cancelled_in_heap + sim._cancelled_removed
    # The probe loops are still pending when the run ends.
    assert sim.pending_events > 0
    assert sum(calls.values()) == (
        sim.events_fired + sim.pending_events + cancelled
    )
