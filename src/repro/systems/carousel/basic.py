"""Carousel Basic: the client protocol and system wiring.

The happy path, exactly as in Figure 1 of the Natto paper:

1. the client fans read-and-prepare requests out to every participant
   leader (transaction processing, 2PC and replication start in
   parallel from here);
2. leaders reply with read results and independently replicate their
   prepare records, then vote to the coordinator;
3. the client computes write values from the reads and sends them with
   a commit request to its co-located coordinator;
4. the coordinator replicates the write data, waits for every vote, and
   commits; participants learn the outcome asynchronously, replicate
   the write data, apply and release.

Any OCC conflict at any participant aborts the attempt; the client
driver retries immediately with a fresh attempt id.

The deployment (partition groups, coordinator groups, addressing) is
:class:`~repro.systems.base.RaftBackedSystem`'s; this module adds the
node classes and the client protocol.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.net.payload import (
    AbortRequest,
    CarouselReadAndPrepare,
    CommitRequest,
    Payload,
)
from repro.sim import Future, all_of
from repro.systems.base import RaftBackedSystem, attempt_id
from repro.systems.carousel.coordinator import CarouselCoordinator
from repro.systems.carousel.server import CarouselParticipant
from repro.txn.transaction import TransactionSpec


class CarouselBasic(RaftBackedSystem):
    """The baseline Natto builds on."""

    name = "Carousel Basic"
    participant_class = CarouselParticipant
    coordinator_class = CarouselCoordinator

    # ------------------------------------------------------------------
    # Client protocol

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
            replies = yield all_of(
                [
                    client.network.call(
                        client,
                        self.leader_names[pid],
                        "read_and_prepare",
                        CarouselReadAndPrepare(
                            aid,
                            reads_by_pid.get(pid, []),
                            writes_by_pid.get(pid, []),
                            coordinator,
                            client.name,
                            participants,
                        ),
                    )
                    for pid in participants
                ]
            )
            if not all(reply.ok for reply in replies):
                # Some participant refused to prepare; its no-vote drives
                # the coordinator's abort + cleanup.  Retry immediately.
                for reply in replies:
                    if not reply.ok:
                        client.note_abort(aid, reply.reason)
                        break
                return False
            read_results: Dict[str, str] = {}
            for reply in replies:
                read_results.update(reply.values)
            writes = spec.make_writes(read_results)
            if writes is None:
                client.network.send(
                    client,
                    coordinator,
                    "abort_request",
                    AbortRequest(aid, client.name, participants),
                )
                yield decision
                return True  # voluntary abort: the transaction completed
            client.network.send(
                client,
                coordinator,
                "commit_request",
                CommitRequest(aid, client.name, participants, writes),
            )
            committed = yield decision
            return bool(committed)
        finally:
            client.unregister_attempt(aid)
