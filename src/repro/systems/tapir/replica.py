"""TAPIR replica: validation, finalize, and commit application.

Each replica validates a prepare against **its own** state — the version
of every read key must match the version the client read, and the
transaction's key sets must not conflict with locally prepared
transactions.  Because replicas apply committed writes at different
times (commit messages are asynchronous), their answers can disagree;
resolving that disagreement is the client's job (fast quorum / slow
path), not the replica's.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.cluster.node import Node
from repro.net.payload import (
    TAPIR_ACK,
    TAPIR_VOTE_OK,
    Payload,
    TapirAbort,
    TapirCommit,
    TapirFinalize,
    TapirPrepare,
    TapirRead,
    TapirReadResult,
    TapirVoteAbort,
)
from repro.obs.abort import AbortReason
from repro.store.kv import KeyValueStore
from repro.store.occ import PreparedSet


class TapirReplica(Node):
    """One replica of one partition."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.store = KeyValueStore()
        self.prepared = PreparedSet()
        self.prepare_ok_count = 0
        self.prepare_abort_count = 0

    # ------------------------------------------------------------------
    # Reads (unreplicated operation: any single replica serves them)

    def handle_tapir_read(
        self, payload: TapirRead, src: str
    ) -> TapirReadResult:
        values = {}
        for key in payload.keys:
            versioned = self.store.read(key)
            values[key] = (versioned.value, versioned.version)
        return TapirReadResult(values)

    # ------------------------------------------------------------------
    # Prepare (consensus operation: client collects a quorum)

    def handle_tapir_prepare(self, payload: TapirPrepare, src: str) -> Payload:
        txn = payload.txn
        read_versions: Dict[str, int] = payload.read_versions
        reads = list(read_versions)
        writes = payload.write_keys
        if txn in self.prepared:
            return TAPIR_VOTE_OK  # duplicate (finalize raced the prepare)
        for key, version in read_versions.items():
            if self.store.version_of(key) != version:
                self.prepare_abort_count += 1
                return self._abort_vote(txn, AbortReason.STALE_READ)
        if not self.prepared.is_free(reads, writes):
            self.prepare_abort_count += 1
            return self._abort_vote(txn, AbortReason.OCC_CONFLICT)
        self.prepared.add(txn, reads, writes)
        self.prepare_ok_count += 1
        return TAPIR_VOTE_OK

    def _abort_vote(self, txn: str, reason: AbortReason) -> TapirVoteAbort:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.refuse(reason, node=self.name, txn=txn)
        return TapirVoteAbort(str(reason))

    def handle_tapir_finalize(
        self, payload: TapirFinalize, src: str
    ) -> Payload:
        """Slow path: the client's majority decision is installed."""
        txn = payload.txn
        if payload.decision == "ok":
            if txn not in self.prepared:
                # Forced by consensus: record the prepare even if this
                # replica's lone vote differed.
                self.prepared.add(
                    txn,
                    list(payload.read_versions),
                    payload.write_keys,
                )
        else:
            self.prepared.remove(txn)
        return TAPIR_ACK

    # ------------------------------------------------------------------
    # Outcome (inconsistent operations: asynchronous, no quorum wait)

    def handle_tapir_commit(self, payload: TapirCommit, src: str) -> None:
        txn = payload.txn
        self.store.apply_writes(payload.writes, txn)
        self.prepared.remove(txn)

    def handle_tapir_abort(self, payload: TapirAbort, src: str) -> None:
        self.prepared.remove(payload.txn)
