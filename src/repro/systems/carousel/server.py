"""The Carousel participant leader.

Implements the server side of Carousel Basic's read-and-prepare
(Figure 1 of the Natto paper):

* on ``read_and_prepare``: OCC-check the transaction's pre-declared
  read/write key sets against the prepared set; on success, serve reads
  from the committed store, mark the transaction prepared, replicate the
  prepare record to the followers and — once replication completes —
  vote *yes* to the transaction's coordinator.  On conflict, reply
  failure to the client and vote *no*;
* on ``commit_txn`` (commit): replicate the write data, then apply it
  and release the prepared marks — a transaction's updates only become
  visible after the participant leader replicates them (the behaviour
  Natto's ECSF later relaxes);
* on ``commit_txn`` (abort): release the prepared marks immediately.

All replicas (leader and followers) apply committed ``writes`` log
entries to their local stores in log order, so follower state converges
to the leader's — asserted by the integration tests.

The store, the partition id, abort tombstones, the traced refusal and
the no-vote come from :class:`~repro.systems.base.RaftParticipant`.
"""

from __future__ import annotations

from typing import Any

from repro.net.payload import (
    CarouselReadAndPrepare,
    Payload,
    ReadOk,
    VoteReason,
)
from repro.obs.abort import AbortReason
from repro.store.occ import PreparedSet
from repro.systems.base import RaftParticipant


class CarouselParticipant(RaftParticipant):
    """Leader (and follower) replica of one data partition."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.prepared = PreparedSet()

    # ------------------------------------------------------------------
    # Read-and-prepare (round 1)

    def handle_read_and_prepare(
        self, payload: CarouselReadAndPrepare, src: str
    ) -> Payload:
        txn = payload.txn
        if txn in self._abort_tombstones:
            return self._tombstone_refusal(txn)
        self._rap_seen.add(txn)
        reads = payload.reads
        writes = payload.writes
        if not self.prepared.is_free(reads, writes):
            self._vote_no(payload, AbortReason.OCC_CONFLICT)
            return self._refusal(txn, AbortReason.OCC_CONFLICT)
        self.prepared.add(txn, reads, writes)
        values = {key: self.store.read(key).value for key in reads}
        self.propose(("prepare", txn)).add_done_callback(
            lambda _: self._vote_yes(payload)
        )
        return ReadOk(values)

    def _vote_yes(self, payload: CarouselReadAndPrepare) -> None:
        self._network.send(
            self,
            payload.coordinator,
            "vote",
            VoteReason(
                payload.txn,
                self.partition_id,
                "yes",
                payload.participants,
                payload.client,
                None,
            ),
        )

    # ------------------------------------------------------------------
    # Commit / abort (2PC outcome)

    def handle_commit_txn(self, payload: Payload, src: str) -> None:
        txn = payload.txn
        if not payload.decision:
            self._bury(txn, payload.reason)
            self.release(txn)
            return
        writes = payload.writes or {}
        if txn not in self.prepared:
            # Commit for a transaction we never prepared (we voted no in
            # a race the coordinator lost) cannot happen: the coordinator
            # only commits with a yes vote from every participant.
            raise AssertionError(f"commit for unprepared transaction {txn}")
        self.propose(("writes", txn, writes)).add_done_callback(
            lambda _: self.release(txn)
        )

    def release(self, txn: str) -> None:
        """Drop prepared marks (an outcome, or Fast's follower apply)."""
        self.prepared.remove(txn)
        self._rap_seen.discard(txn)

    # ------------------------------------------------------------------
    # Replicated state machine

    def on_apply(self, payload: Any, index: int) -> None:
        kind = payload[0]
        if kind == "writes":
            _, txn, writes = payload
            self.store.apply_writes(writes, txn)
        # "prepare" entries carry no state-machine effect (they exist for
        # recovery, which the paper's prototypes do not exercise).
