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

Any OCC conflict at any participant leader aborts the attempt; the
client driver retries immediately with a fresh attempt id.

The deployment (partition groups, coordinator groups, addressing) is
:class:`~repro.systems.base.RaftBackedSystem`'s; this module adds the
node classes and the client protocol.  Carousel Fast runs the same
``execute`` through two hooks: :meth:`CarouselBasic.prepare_replicas`
(which replicas of a partition get the read-and-prepare) and
:meth:`CarouselBasic.commit_request` (the commit request's payload).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Sequence

from repro.net.payload import (
    AbortRequest,
    CarouselReadAndPrepare,
    CommitRequest,
    Payload,
)
from repro.sim import all_of
from repro.systems.base import RaftBackedSystem
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

    def execute(self, client, spec: TransactionSpec, attempt) -> Generator:
        aid = attempt.aid
        participants = self.participant_ids(spec)
        coordinator = self.coordinator_name(client.datacenter)
        reads_by_pid = self.cluster.partitioner.group_keys(spec.read_keys)
        writes_by_pid = self.cluster.partitioner.group_keys(spec.write_keys)

        calls = []
        leader_calls = []
        for pid in participants:
            # One payload object serves every replica of the partition.
            body = CarouselReadAndPrepare(
                aid,
                reads_by_pid.get(pid, []),
                writes_by_pid.get(pid, []),
                coordinator,
                client.name,
                participants,
            )
            leader = self.leader_names[pid]
            for replica in self.prepare_replicas(pid):
                is_leader = replica == leader
                call = client.network.call(
                    client,
                    replica,
                    (
                        "read_and_prepare"
                        if is_leader
                        else "read_and_prepare_replica"
                    ),
                    body,
                )
                calls.append(call)
                if is_leader:
                    leader_calls.append(call)
        replies = yield all_of(calls)
        leader_replies = [call.value for call in leader_calls]
        if attempt.refused(leader_replies):
            # A leader refused to prepare; its no-vote drives the
            # coordinator's abort + cleanup.  Retry immediately.
            return False
        read_results: Dict[str, str] = {}
        for reply in leader_replies:
            read_results.update(reply.values)
        writes = spec.make_writes(read_results)
        if writes is None:
            client.network.send(
                client,
                coordinator,
                "abort_request",
                AbortRequest(aid, client.name, participants),
            )
            yield attempt.decision
            return True  # voluntary abort: the transaction completed
        client.network.send(
            client,
            coordinator,
            "commit_request",
            self.commit_request(
                aid,
                client.name,
                participants,
                writes,
                all(reply.ok for reply in replies),
            ),
        )
        committed = yield attempt.decision
        return bool(committed)

    def prepare_replicas(self, pid: int) -> Sequence[str]:
        """Replicas of partition ``pid`` that get a read-and-prepare, in
        send order: the leader (``read_and_prepare``); any other gets
        ``read_and_prepare_replica``."""
        return (self.leader_names[pid],)

    def commit_request(
        self,
        aid: str,
        client: str,
        participants: List[int],
        writes: Dict[str, str],
        unanimous: bool,
    ) -> Payload:
        """The commit request; ``unanimous`` tells whether every replica
        that got a read-and-prepare accepted it."""
        return CommitRequest(aid, client, participants, writes)
