"""Carousel Fast: read-and-prepare fanned out to every replica.

Fast path: the client sends read-and-prepare to **all** replicas of each
participant partition.  If every replica of every partition votes yes,
the prepare is already durable on every replica, so the coordinator can
commit as soon as the write data is replicated — skipping the
prepare-replication + vote leg of Carousel Basic.

Fallback: on mixed votes, the leader's vote decides (leaders always run
the full Basic behaviour — prepare, replicate, vote — so no extra round
is needed); if any leader refuses, the attempt aborts and retries.

Why Fast degrades under contention (the effect the paper leans on):
follower replicas hold their prepared marks until the committed writes
*apply* on them — one replication leg later than the leader releases —
so at high contention followers refuse transactions the leader would
accept, pushing the system off the fast path and up the abort rate.

The client protocol is Carousel Basic's ``execute``: Fast names every
replica in ``prepare_replicas`` and sends a ``FastCommitRequest`` that
says whether every replica accepted.  When a leader refuses, the
followers' prepared marks are cleared by the coordinator's
``fast_outcome`` fan-out once it decides the abort.  Followers keep
their abort tombstones in the same
:class:`~repro.systems.base.RaftParticipant` structures as leaders; the
coordinators get the replica names as their one extra keyword.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.net.payload import (
    CarouselReadAndPrepare,
    FastCommitRequest,
    FastOutcome,
    Payload,
    ReadOk,
)
from repro.obs.abort import AbortReason
from repro.systems.carousel.basic import CarouselBasic
from repro.systems.carousel.coordinator import CarouselCoordinator, CoordinatedTxn
from repro.systems.carousel.server import CarouselParticipant


class FastParticipant(CarouselParticipant):
    """Adds the replica-side (follower) fast-path vote.

    Abort notifications and read-and-prepare requests travel different
    network paths, so an abort can overtake the request it cancels
    (e.g. when the partition leader is co-located with the client the
    no-vote detour is shorter than a jittery direct hop).  Followers use
    the leader's tombstones (a leader never gets follower messages, and
    a follower never gets leader ones): a request arriving after its
    own abort is refused instead of leaving a stuck prepared mark.
    """

    def handle_read_and_prepare_replica(
        self, payload: CarouselReadAndPrepare, src: str
    ) -> Payload:
        """Follower vote: OCC over the follower's own (lagging) state."""
        txn = payload.txn
        if txn in self._abort_tombstones:
            return self._tombstone_refusal(txn)
        self._rap_seen.add(txn)
        reads = payload.reads
        writes = payload.writes
        if not self.prepared.is_free(reads, writes):
            return self._refusal(txn, AbortReason.OCC_CONFLICT)
        self.prepared.add(txn, reads, writes)
        values = {key: self.store.read(key).value for key in reads}
        return ReadOk(values)

    def handle_fast_outcome(self, payload: FastOutcome, src: str) -> None:
        """Abort notification for follower-held prepared marks."""
        if payload.decision:
            return
        self._bury(payload.txn, AbortReason.PREEMPTED)
        self.release(payload.txn)

    def on_apply(self, payload: Any, index: int) -> None:
        super().on_apply(payload, index)
        if payload[0] == "writes":
            # A committed transaction's follower-side prepared marks are
            # held until its writes apply here (the staleness window).
            self.release(payload[1])


class FastCoordinator(CarouselCoordinator):
    """Also clears follower prepared marks on abort."""

    def __init__(self, *args: Any,
                 replica_names: Dict[int, List[str]] = None, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.replica_names = replica_names or {}

    def _decide(self, state: CoordinatedTxn, committed: bool) -> None:
        super()._decide(state, committed)
        if committed:
            return  # followers release when the writes entry applies
        outcome = FastOutcome(state.txn, False)
        for pid in state.participants or []:
            leader = self.leader_names[pid]
            for replica in self.replica_names.get(pid, []):
                if replica != leader:
                    self._network.send(self, replica, "fast_outcome", outcome)


class CarouselFast(CarouselBasic):
    """Carousel's fast protocol."""

    name = "Carousel Fast"
    participant_class = FastParticipant
    coordinator_class = FastCoordinator

    def coordinator_options(self) -> Dict[str, Any]:
        return {
            "replica_names": {
                pid: group.replica_names for pid, group in self.groups.items()
            }
        }

    def prepare_replicas(self, pid: int) -> Sequence[str]:
        return self.groups[pid].replica_names

    def commit_request(
        self,
        aid: str,
        client: str,
        participants: List[int],
        writes: Dict[str, str],
        unanimous: bool,
    ) -> Payload:
        return FastCommitRequest(aid, client, participants, writes, unanimous)
