"""Pinned work counts of every registered system at the converged point.

The runs are those of ``test_converged_fingerprints_pinned.py`` (same
recipe, same cases, made once per session).  Each result's
``events_fired``, ``messages_sent`` and ``bytes_sent`` come from the
layers' always-on counters and must equal the row pinned for the system
in ``CONVERGED_WORK_COUNTS.json`` next to this file, traced or not.  The
digests say whether behaviour changed; these counts say whether the
simulator did more or less work for it.  A deliberate change re-records
a row by pasting the measured counts that the failure message prints.
"""

import json
import pathlib

import pytest

from repro.harness.systems import SYSTEM_FACTORIES
from tests.verify.test_converged_fingerprints_pinned import (
    CASES,
    converged_run,
)

PATH = pathlib.Path(__file__).with_name("CONVERGED_WORK_COUNTS.json")

EXPECTED = json.loads(PATH.read_text())


def test_every_registered_system_is_pinned():
    assert set(EXPECTED) == set(SYSTEM_FACTORIES)


@pytest.mark.parametrize("system, tracing", CASES)
def test_converged_work_counts_match_pinned(system, tracing):
    result = converged_run(system, tracing)
    measured = {
        "events_fired": result.events_fired,
        "messages_sent": result.messages_sent,
        "bytes_sent": result.bytes_sent,
    }
    assert measured == EXPECTED[system], (
        f"work counts changed for {system}: measured {measured}. If the "
        f"change is intended, record them under {system!r} in {PATH}"
    )
