"""Behavior-identity fingerprints over transaction records.

A perf refactor of the protocol layer is only admissible if it is
*behavior bit-identical*: same decisions, same retries, same simulated
timestamps for every transaction.  The cheapest complete witness the
harness has is the :class:`~repro.txn.stats.TxnRecord` list — every
field of every record is a deterministic function of the run's seed and
the code under test, and the ``start``/``end`` floats encode the entire
timing behavior of the kernel, network, and protocol stack (a single
reordered message or extra RNG draw shifts them).

:func:`fingerprint_result` hashes the full record list of one
experiment into a sha256 hex digest.  Floats are rendered with
``repr`` so the digest is sensitive to the last ulp — two runs agree
iff their behavior is bit-identical.  The tier-1 test
``tests/verify/test_fingerprint_pinned.py`` holds the recipe of four
pinned points and checks their digests against the recorded ones in
``tests/verify/FINGERPRINTS.json``.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.txn.stats import TxnRecord


def record_line(record: TxnRecord) -> str:
    """Canonical one-line rendering of a record (all fields, exact)."""
    return "|".join(
        (
            record.txn_id,
            record.priority.name,
            record.txn_type,
            repr(record.start),
            repr(record.end),
            str(record.retries),
            record.outcome.name,
            ",".join(record.abort_reasons),
        )
    )


def fingerprint_records(records: Iterable[TxnRecord]) -> str:
    """sha256 hex digest of a record sequence, order-sensitive."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(record_line(record).encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def fingerprint_result(result) -> str:
    """Digest of an :class:`~repro.harness.experiment.ExperimentResult`.

    Covers every transaction the run completed (committed and failed,
    inside and outside the measurement window) in completion order.
    """
    return fingerprint_records(result.stats.records)
