"""Pinned fingerprints of every registered system at a converged point.

``FINGERPRINTS.json`` pins one system per family at 80 txn/s, where the
drain cap cuts most transactions off in flight.  This module pins all
of ``SYSTEM_FACTORIES`` at a light YCSB+T point (20 txn/s, 600 keys,
2 s of load, a 40 s drain cap, seed 0) where every transaction
finishes, so each digest covers whole transactions.  The digests live
in ``CONVERGED_FINGERPRINTS.json`` next to this file; a deliberate
behavior change re-records one by pasting the measured value that the
failure message prints.

Natto-PA and Natto-CP share a digest here: conditional prepare never
fires at this point, so CP behaves exactly like PA.

Every system also runs traced (ids ending in ``-traced``) and must match
the same pin: recording spans and events changes no decision.

Each run is made once per session (:func:`converged_run`);
``test_converged_work_counts_pinned.py`` reads the same runs.
"""

import functools
import json
import pathlib

import pytest

from repro.experiments.common import Scale
from repro.harness.experiment import ExperimentSettings
from repro.harness.parallel import PointSpec, WorkloadSpec, run_point
from repro.harness.systems import SYSTEM_FACTORIES
from repro.verify.fingerprint import fingerprint_result
from repro.workloads import YcsbTWorkload

PATH = pathlib.Path(__file__).with_name("CONVERGED_FINGERPRINTS.json")

CONVERGED_RATE = 20
CONVERGED_KEYS = 600
CONVERGED_SCALE = Scale(
    "converged", duration=2.0, trim=0.5, repeats=1, drain=40.0
)

EXPECTED = json.loads(PATH.read_text())

CASES = [
    pytest.param(system, tracing, id=f"{system}-traced" if tracing else system)
    for tracing in (False, True)
    for system in sorted(SYSTEM_FACTORIES)
]


def test_every_registered_system_is_pinned():
    assert set(EXPECTED) == set(SYSTEM_FACTORIES)


@functools.lru_cache(maxsize=None)
def converged_run(system, tracing):
    """The detached result of ``system``'s run at the converged point."""
    settings = CONVERGED_SCALE.apply(ExperimentSettings()).scaled(
        seed=0, tracing=tracing
    )
    spec = PointSpec(
        system=system,
        x=CONVERGED_RATE,
        input_rate=float(CONVERGED_RATE),
        workload=WorkloadSpec.of(YcsbTWorkload, num_keys=CONVERGED_KEYS),
        settings=settings,
        repeats=CONVERGED_SCALE.repeats,
    )
    return run_point(spec).results[0]


@pytest.mark.parametrize("system, tracing", CASES)
def test_converged_fingerprint_matches_pinned(system, tracing):
    result = converged_run(system, tracing)
    assert result.unfinished == 0, (
        f"{system} left {result.unfinished} transactions unfinished"
    )
    digest = fingerprint_result(result)
    assert digest == EXPECTED[system], (
        f"converged fingerprint changed for {system}: measured {digest}. "
        "If the behavior change is intended, record that value under "
        f"{system!r} in {PATH}"
    )
