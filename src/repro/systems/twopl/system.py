"""The 2PL+2PC client protocol and system wiring.

Sequential structure, as the paper describes for Megastore/Spanner-
style systems: transaction processing (lock acquisition + reads), then
2PC (prepare with replication at every participant), then the
replicated commit decision at the coordinator — no overlap, which is
why this family starts around ~700 ms in Figure 7(a) while Carousel
Basic starts around ~370 ms.

A wound can only land during the read/lock phase; once the client sends
prepares it ignores wound events (wounding a prepared transaction would
stall 2PC), and the wounding requester simply waits.  The wound is the
one event kind ``execute`` handles itself; the client driver's
:class:`~repro.systems.client.Attempt` resolves the decision.

The deployment is :class:`~repro.systems.base.RaftBackedSystem`'s, with
Carousel's coordinator (it only collects votes and replicates the
decision here); participants get the wounding policy as their one extra
keyword.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from repro.net.payload import (
    CommitRequest,
    LockRead,
    Payload,
    ReleaseLocks,
    TwoPLPrepare,
)
from repro.obs.abort import AbortReason
from repro.sim import Future, all_of, any_of
from repro.systems.base import RaftBackedSystem
from repro.systems.carousel.coordinator import CarouselCoordinator
from repro.systems.twopl.policy import WoundWaitPolicy
from repro.systems.twopl.server import TwoPLParticipant
from repro.txn.transaction import TransactionSpec


class TwoPL(RaftBackedSystem):
    """Spanner-like 2PL+2PC; pass a policy for the (P)/(POW) variants."""

    participant_class = TwoPLParticipant
    coordinator_class = CarouselCoordinator

    def __init__(self, policy: WoundWaitPolicy = None) -> None:
        self.policy = policy or WoundWaitPolicy()
        self.name = self.policy.name

    def participant_options(self) -> Dict[str, Any]:
        return {"policy": self.policy}

    # ------------------------------------------------------------------

    def execute(self, client, spec: TransactionSpec, attempt) -> Generator:
        aid = attempt.aid
        partitioner = self.cluster.partitioner
        participants = self.participant_ids(spec)
        coordinator = self.coordinator_name(client.datacenter)
        reads_by_pid = partitioner.group_keys(spec.read_keys)
        writes_by_pid = partitioner.group_keys(spec.write_keys)
        # Wound-wait age: stable across retries so a transaction ages
        # toward winning instead of starving.
        wound_ts = client.txn_start_times.get(spec.txn_id, client.sim.now)

        wounded = Future()

        def on_wound(payload: Payload, src: str) -> None:
            if payload.kind == "wound":
                attempt.note_abort(AbortReason.PREEMPTED)
                wounded.try_set_result(True)

        attempt.on_event = on_wound

        # ---- Phase 1: read locks + reads (wound can land here) ----
        read_calls = all_of(
            [
                client.network.call(
                    client,
                    self.leader_names[pid],
                    "lock_read",
                    LockRead(
                        aid,
                        reads_by_pid.get(pid, []),
                        writes_by_pid.get(pid, []),
                        wound_ts,
                        int(spec.priority),
                        client.name,
                        coordinator,
                        participants,
                    ),
                )
                for pid in participants
            ]
        )
        outcome = yield any_of([read_calls, wounded])
        # Unless the wound won, ``outcome`` is the list of lock replies.
        if wounded.done or attempt.refused(outcome):
            self._release_everywhere(client, aid, participants)
            return False
        read_values: Dict[str, str] = {}
        for reply in outcome:
            read_values.update(reply.values)

        writes = spec.make_writes(read_values)
        if writes is None:
            self._release_everywhere(client, aid, participants)
            return True  # voluntary abort after reads

        # ---- Phase 2: 2PC (wounds are ignored from here on) ----
        for pid in participants:
            client.network.send(
                client,
                self.leader_names[pid],
                "twopl_prepare",
                TwoPLPrepare(
                    aid,
                    {
                        key: writes[key]
                        for key in writes_by_pid.get(pid, [])
                        if key in writes
                    },
                    coordinator,
                    client.name,
                    participants,
                ),
            )
        # Participants replicate the write data with their prepare
        # records; the coordinator replicates only its commit
        # decision, so the commit request carries no writes.
        client.network.send(
            client,
            coordinator,
            "commit_request",
            CommitRequest(aid, client.name, participants, {}),
        )
        committed = yield attempt.decision
        return bool(committed)

    def _release_everywhere(self, client, aid: str, participants) -> None:
        request = ReleaseLocks(aid)
        for pid in participants:
            client.network.send(
                client, self.leader_names[pid], "release_locks", request
            )
