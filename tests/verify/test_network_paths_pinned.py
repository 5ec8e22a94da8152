"""Pinned fingerprints for the network paths the main fingerprints skip.

``FINGERPRINTS.json`` pins every system family under constant delays and
no loss, where the network precomputes each link's delay once.  This
module pins Natto-RECSF at the same recipe point (see
``test_fingerprint_pinned``) on the two per-message sampling paths:
Pareto delay jitter (the Figure 11 knob) and packet loss with its
retransmission penalty and Mathis bandwidth cap (the Figure 12 knob).
The digests live in ``NETWORK_PATH_FINGERPRINTS.json`` next to this
file; a deliberate behavior change re-records them by pasting the
measured value that the failure message prints.
"""

import json
import pathlib

import pytest

from repro.harness.experiment import ExperimentSettings
from repro.harness.parallel import PointSpec, WorkloadSpec, run_point
from repro.net import LossConfig
from repro.verify.fingerprint import fingerprint_result
from repro.workloads import YcsbTWorkload

from .test_fingerprint_pinned import (
    FINGERPRINT_KEYS,
    FINGERPRINT_RATE,
    FINGERPRINT_SCALE,
)

PATH = pathlib.Path(__file__).with_name("NETWORK_PATH_FINGERPRINTS.json")
SYSTEM = "Natto-RECSF"

#: path name -> SystemConfig overrides that force the network onto it.
NETWORK_PATHS = {
    "jitter": {"delay_variance_cv": 0.15},
    "loss": {"loss": LossConfig(loss_rate=0.015)},
}

EXPECTED = json.loads(PATH.read_text())


def test_every_path_is_pinned():
    assert set(EXPECTED) == set(NETWORK_PATHS)


@pytest.mark.parametrize("path", sorted(NETWORK_PATHS))
def test_network_path_fingerprint_matches_pinned(path):
    base = FINGERPRINT_SCALE.apply(ExperimentSettings()).scaled(seed=0)
    settings = base.scaled(
        system_config=base.system_config.with_overrides(**NETWORK_PATHS[path])
    )
    spec = PointSpec(
        system=SYSTEM,
        x=FINGERPRINT_RATE,
        input_rate=float(FINGERPRINT_RATE),
        workload=WorkloadSpec.of(YcsbTWorkload, num_keys=FINGERPRINT_KEYS),
        settings=settings,
        repeats=FINGERPRINT_SCALE.repeats,
    )
    digest = fingerprint_result(run_point(spec).results[0])
    assert digest == EXPECTED[path], (
        f"{SYSTEM} fingerprint on the {path} network path changed: "
        f"measured {digest}. If the behavior change is intended, record "
        f"that value under {path!r} in {PATH}"
    )
