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

Followers keep their abort tombstones in the same
:class:`~repro.systems.base.RaftParticipant` structures as leaders; the
coordinators get the replica names as their one extra keyword.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List

from repro.net.payload import (
    AbortRequest,
    CarouselReadAndPrepare,
    FastCommitRequest,
    FastOutcome,
    Payload,
    ReadOk,
)
from repro.obs.abort import AbortReason
from repro.sim import Future, all_of
from repro.systems.base import attempt_id
from repro.systems.carousel.basic import CarouselBasic
from repro.systems.carousel.coordinator import CarouselCoordinator, CoordinatedTxn
from repro.systems.carousel.server import CarouselParticipant
from repro.txn.transaction import TransactionSpec


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
            self.prepares_refused += 1
            return self._refusal(txn, AbortReason.OCC_CONFLICT)
        self.prepares_ok += 1
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

    def execute(self, client, spec: TransactionSpec, attempt: int) -> Generator:
        aid = attempt_id(spec, attempt)
        participants = self.participant_ids(spec)
        coordinator = self.coordinator_name(client.datacenter)
        reads_by_pid = self.cluster.partitioner.group_keys(spec.read_keys)
        writes_by_pid = self.cluster.partitioner.group_keys(spec.write_keys)

        decision = Future()

        def on_event(payload: Payload, src: str) -> None:
            if payload.kind != "decision":
                return
            if not payload.committed:
                client.note_abort(aid, payload.reason)
            decision.try_set_result(payload.committed)

        client.register_attempt(aid, on_event)
        try:
            calls = []
            call_meta = []  # (partition, is_leader)
            for pid in participants:
                body = CarouselReadAndPrepare(
                    aid,
                    reads_by_pid.get(pid, []),
                    writes_by_pid.get(pid, []),
                    coordinator,
                    client.name,
                    participants,
                )
                group = self.groups[pid]
                for replica in group.replica_names:
                    is_leader = replica == group.leader_name
                    method = (
                        "read_and_prepare"
                        if is_leader
                        else "read_and_prepare_replica"
                    )
                    calls.append(
                        client.network.call(client, replica, method, body)
                    )
                    call_meta.append((pid, is_leader))
            replies = yield all_of(calls)

            leader_ok = {}
            leader_values: Dict[str, str] = {}
            unanimous = True
            for (pid, is_leader), reply in zip(call_meta, replies):
                if not reply.ok:
                    unanimous = False
                if is_leader:
                    leader_ok[pid] = reply.ok
                    if reply.ok:
                        leader_values.update(reply.values)
            if not all(leader_ok.values()):
                # A leader refused: abort (its no-vote triggers cleanup);
                # follower marks are cleared by the coordinator's
                # fast_outcome fan-out when it decides the abort.
                for (pid, is_leader), reply in zip(call_meta, replies):
                    if is_leader and not reply.ok:
                        client.note_abort(aid, reply.reason)
                        break
                return False
            writes = spec.make_writes(leader_values)
            if writes is None:
                client.network.send(
                    client,
                    coordinator,
                    "abort_request",
                    AbortRequest(aid, client.name, participants),
                )
                yield decision
                return True
            client.network.send(
                client,
                coordinator,
                "commit_request",
                FastCommitRequest(
                    aid, client.name, participants, writes, unanimous
                ),
            )
            committed = yield decision
            return bool(committed)
        finally:
            client.unregister_attempt(aid)
