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
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.net.payload import (
    CarouselReadAndPrepare,
    Payload,
    ReadOk,
    Refusal,
    VoteReason,
)
from repro.net.probing import ProbeTargetMixin
from repro.obs.abort import AbortReason, reason_value
from repro.raft.node import RaftReplica
from repro.store.kv import KeyValueStore
from repro.store.occ import PreparedSet


class CarouselParticipant(ProbeTargetMixin, RaftReplica):
    """Leader (and follower) replica of one data partition."""

    def __init__(self, *args: Any, store: Optional[KeyValueStore] = None,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.store = store if store is not None else KeyValueStore()
        self.prepared = PreparedSet()
        #: attempt id -> metadata for transactions prepared here.
        self.txn_meta: Dict[str, dict] = {}
        # An abort decision travels coordinator->participant while the
        # read-and-prepare travels client->participant; with network
        # jitter the abort can win the race.  Tombstones refuse a
        # request that arrives after its own abort, remembering why the
        # transaction was aborted so the refusal stays classified.
        self._abort_tombstones: Dict[str, Optional[str]] = {}
        self._rap_seen: set = set()
        # Counters for tests and reports.
        self.prepares_ok = 0
        self.prepares_refused = 0

    # ------------------------------------------------------------------
    # Read-and-prepare (round 1)

    def handle_read_and_prepare(
        self, payload: CarouselReadAndPrepare, src: str
    ) -> Payload:
        txn = payload.txn
        if txn in self._abort_tombstones:
            reason = self._abort_tombstones.pop(txn)
            return self._refusal(txn, reason)
        self._rap_seen.add(txn)
        reads = payload.reads
        writes = payload.writes
        if not self.prepared.is_free(reads, writes):
            self.prepares_refused += 1
            self._vote(payload, "no", reason=AbortReason.OCC_CONFLICT)
            return self._refusal(txn, AbortReason.OCC_CONFLICT)
        self.prepares_ok += 1
        self.prepared.add(txn, reads, writes)
        self.txn_meta[txn] = {
            "coordinator": payload.coordinator,
            "client": payload.client,
            "participants": payload.participants,
        }
        values = {key: self.store.read(key).value for key in reads}
        self.propose(("prepare", txn)).add_done_callback(
            lambda _: self._vote(payload, "yes")
        )
        return ReadOk(values)

    def _refusal(self, txn: str, reason) -> Refusal:
        """A classified ``ok: False`` reply (plus trace bookkeeping)."""
        obs = self.sim.obs
        if obs.enabled:
            obs.tracer.refuse(reason, node=self.name, txn=txn)
        return Refusal(reason_value(reason))

    def _vote(self, payload, vote: str, reason=None) -> None:
        self._network.send(
            self,
            payload.coordinator,
            "vote",
            VoteReason(
                payload.txn,
                self.group_partition_id(),
                vote,
                payload.participants,
                payload.client,
                reason_value(reason) if reason is not None else None,
            ),
        )

    def group_partition_id(self) -> int:
        # Names are "p<pid>-<DC>"; see ReplicationGroup.replica_name.
        return int(self.name.split("-")[0][1:])

    # ------------------------------------------------------------------
    # Commit / abort (2PC outcome)

    def handle_commit_txn(self, payload: Payload, src: str) -> None:
        txn = payload.txn
        if not payload.decision:
            if txn not in self.prepared and txn not in self._rap_seen:
                self._abort_tombstones[txn] = payload.reason
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
        """Drop prepared marks; hook point for Natto's waiter wake-up."""
        self.prepared.remove(txn)
        self.txn_meta.pop(txn, None)
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
