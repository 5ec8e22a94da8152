"""Pinned determinism fingerprints (tier-1 promotion of repro.verify.fingerprint).

Runs one YCSB+T point per system family and checks the sha256 digest of
its transaction records against ``FINGERPRINTS.json`` next to this
file.  This module is the only copy of the recipe.  Any change to
simulation arithmetic, RNG consumption order, or protocol logic shows
up here as a digest mismatch.  A deliberate behavior change re-records
a digest by pasting the measured value that the failure message prints
into the JSON file.
"""

import json
import pathlib

import pytest

from repro.experiments.common import Scale
from repro.harness.experiment import ExperimentSettings
from repro.harness.parallel import PointSpec, WorkloadSpec, run_point
from repro.verify.fingerprint import fingerprint_result
from repro.workloads import YcsbTWorkload

FINGERPRINTS_PATH = pathlib.Path(__file__).with_name("FINGERPRINTS.json")

FINGERPRINT_SYSTEMS = ("2PL+2PC", "TAPIR", "Carousel Basic", "Natto-RECSF")
FINGERPRINT_RATE = 80
FINGERPRINT_KEYS = 600
FINGERPRINT_SCALE = Scale("fp", duration=2.0, trim=0.5, repeats=1, drain=4.0)

EXPECTED = json.loads(FINGERPRINTS_PATH.read_text())


def test_all_four_families_are_pinned():
    assert set(EXPECTED) == set(FINGERPRINT_SYSTEMS)


@pytest.mark.parametrize("system", FINGERPRINT_SYSTEMS)
def test_fingerprint_matches_pinned(system):
    settings = FINGERPRINT_SCALE.apply(ExperimentSettings()).scaled(seed=0)
    spec = PointSpec(
        system=system,
        x=FINGERPRINT_RATE,
        input_rate=float(FINGERPRINT_RATE),
        workload=WorkloadSpec.of(YcsbTWorkload, num_keys=FINGERPRINT_KEYS),
        settings=settings,
        repeats=FINGERPRINT_SCALE.repeats,
    )
    digest = fingerprint_result(run_point(spec).results[0])
    assert digest == EXPECTED[system], (
        f"determinism fingerprint changed for {system}: measured {digest}. "
        "If the behavior change is intended, record that value under "
        f"{system!r} in {FINGERPRINTS_PATH}"
    )
