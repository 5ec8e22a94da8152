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
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.net.payload import (
    AbortRequest,
    CarouselReadAndPrepare,
    CommitRequest,
    Payload,
)
from repro.sim import Future, all_of
from repro.store.kv import KeyValueStore
from repro.systems.base import Cluster, TransactionSystem, attempt_id
from repro.systems.carousel.coordinator import CarouselCoordinator
from repro.systems.carousel.server import CarouselParticipant
from repro.raft.group import ReplicationGroup
from repro.txn.transaction import TransactionSpec


class CarouselBasic(TransactionSystem):
    """The baseline Natto builds on."""

    name = "Carousel Basic"
    participant_class = CarouselParticipant
    coordinator_class = CarouselCoordinator

    def setup(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.groups: Dict[int, ReplicationGroup] = {}
        self.leader_names: Dict[int, str] = {}
        for placement in cluster.placements:
            group = ReplicationGroup(
                cluster.sim,
                cluster.network,
                placement,
                config=cluster.config.raft,
                replica_factory=self._participant_factory,
            )
            self.groups[placement.partition_id] = group
            self.leader_names[placement.partition_id] = group.leader_name
        self.coordinators: Dict[str, ReplicationGroup] = {}
        for dc in cluster.topology.datacenters:
            group = ReplicationGroup(
                cluster.sim,
                cluster.network,
                cluster.coordinator_placement(dc),
                config=cluster.config.raft,
                replica_factory=self._coordinator_factory,
            )
            self.coordinators[dc] = group
        self.after_setup()

    def after_setup(self) -> None:
        """Hook for subclasses (Natto starts its probe proxies here)."""

    # ------------------------------------------------------------------
    # Node factories (per-replica clocks, stores and CPU models)

    def _participant_factory(self, sim, network, name, dc, **kwargs):
        kwargs["rng"] = self.cluster.streams.stream(f"raft.{name}")
        return self.participant_class(
            sim,
            network,
            name,
            dc,
            store=KeyValueStore(),
            clock=self.cluster.make_clock(name),
            service_time=self.cluster.config.server_service_time,
            **kwargs,
        )

    def _coordinator_factory(self, sim, network, name, dc, **kwargs):
        kwargs["rng"] = self.cluster.streams.stream(f"raft.{name}")
        return self.coordinator_class(
            sim,
            network,
            name,
            dc,
            partitioner=self.cluster.partitioner,
            leader_names=self.leader_names,
            clock=self.cluster.make_clock(name),
            service_time=self.cluster.config.server_service_time,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Addressing

    def coordinator_name(self, datacenter: str) -> str:
        return self.coordinators[datacenter].leader_name

    def participant_ids(self, spec: TransactionSpec) -> List[int]:
        return sorted(
            self.cluster.partitioner.participants(
                spec.read_keys, spec.write_keys
            )
        )

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
