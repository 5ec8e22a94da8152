"""Shared deployment scaffolding, the system interface, and the skeleton
of the Raft-backed systems.

A :class:`Cluster` owns everything protocol-independent about a
deployment: the simulator, random streams, topology, the network with
its delay/loss models, the partitioner and the replica placements.  A
:class:`TransactionSystem` then populates it with protocol-specific
server nodes in :meth:`TransactionSystem.setup` and executes client
transactions via :meth:`TransactionSystem.execute`.

Carousel, Natto and 2PL+2PC deploy the same way: one Raft group per
data partition plus one coordinator group per datacenter.
:class:`RaftBackedSystem` builds that deployment once; a system names
its node classes and any extra constructor keywords.  Their partition
replicas share :class:`RaftParticipant`: the store, the partition id,
abort tombstones, the traced refusal and the no-vote.

The default :class:`SystemConfig` mirrors the paper's settings: 5
partitions, 3 replicas, loosely synchronized clocks, and a small
per-message server CPU cost that produces realistic saturation
behaviour.  Raft has a fixed leader and no elections (failure-free
runs).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Generator, List, Optional, Set

from repro.cluster.clock import Clock, ClockConfig
from repro.cluster.partition import Partitioner
from repro.cluster.placement import PartitionPlacement, place_partitions
from repro.net.delay import make_delay_model
from repro.net.loss import LossConfig
from repro.net.network import Network
from repro.net.payload import Refusal, VoteReason
from repro.net.probing import ProbeTargetMixin
from repro.net.topology import Topology
from repro.obs.abort import reason_value
from repro.raft.group import ReplicationGroup
from repro.raft.node import RaftReplica
from repro.sim import RandomStreams, Simulator
from repro.store.kv import KeyValueStore
from repro.txn.transaction import TransactionSpec


@dataclass(frozen=True)
class SystemConfig:
    """Deployment-level knobs shared by every system."""

    num_partitions: int = 5
    replication_factor: int = 3
    clock: ClockConfig = field(
        default_factory=lambda: ClockConfig(
            max_offset=0.001, sync_interval=1.0, sync_error=0.0005
        )
    )
    #: Per-message CPU cost on servers (calibrated against Figure 14).
    server_service_time: float = 100e-6
    #: Network delay variance (std/mean) — the Figure 11 knob.
    delay_variance_cv: float = 0.0
    #: Packet loss — the Figure 12 knob.
    loss: LossConfig = field(default_factory=LossConfig)
    #: Natto probe settings (harmless for systems that don't probe).
    probe_interval: float = 0.010
    probe_window: float = 1.0
    client_view_refresh: float = 0.1

    def with_overrides(self, **kwargs: Any) -> "SystemConfig":
        return replace(self, **kwargs)


class Cluster:
    """One deployment's protocol-independent state."""

    def __init__(
        self,
        topology: Topology,
        config: SystemConfig = SystemConfig(),
        seed: int = 0,
    ) -> None:
        self.topology = topology
        self.config = config
        self.streams = RandomStreams(seed)
        self.sim = Simulator()
        delay_model = make_delay_model(
            topology, self.streams.stream("net.delay"), config.delay_variance_cv
        )
        self.network = Network(
            self.sim,
            topology,
            delay_model=delay_model,
            loss=config.loss,
            loss_rng=(
                self.streams.stream("net.loss")
                if config.loss.loss_rate > 0
                else None
            ),
        )
        self.partitioner = Partitioner(config.num_partitions)
        self.placements: List[PartitionPlacement] = place_partitions(
            topology.datacenters,
            config.num_partitions,
            config.replication_factor,
        )

    # ------------------------------------------------------------------
    # Helpers for systems

    def make_clock(self, name: str) -> Clock:
        """A fresh, loosely synchronized clock for node ``name``."""
        return Clock(
            self.sim, self.config.clock, self.streams.stream(f"clock.{name}")
        )

    def coordinator_placement(self, datacenter: str) -> PartitionPlacement:
        """Replica placement for the per-datacenter coordinator group.

        The coordinator leader is co-located with the datacenter's
        clients; its followers sit in the next datacenters (the same
        round-robin rule as data partitions), giving the coordinator's
        write-data replication a realistic majority round trip.
        """
        dcs = list(self.topology.datacenters)
        start = dcs.index(datacenter)
        chosen = tuple(
            dcs[(start + j) % len(dcs)]
            for j in range(self.config.replication_factor)
        )
        # Partition ids >= num_partitions are reserved for coordinators.
        return PartitionPlacement(1000 + start, chosen)


class TransactionSystem(abc.ABC):
    """Interface every system (baselines and Natto) implements."""

    #: Display name used by the harness and in benchmark output.
    name: str = "abstract"

    @abc.abstractmethod
    def setup(self, cluster: Cluster) -> None:
        """Create and register all server-side nodes on the cluster."""

    @abc.abstractmethod
    def execute(
        self, client: "ClientDriver", spec: TransactionSpec, attempt: "Attempt"
    ) -> Generator:
        """One transaction attempt, as a process generator.

        Yields simulator suspension points; returns True iff the attempt
        committed (False means abort — the client driver retries).  The
        driver owns ``attempt`` (a :class:`~repro.systems.client.Attempt`)
        and registers it for the run of ``execute``: use ``attempt.aid``
        as the protocol-level id and ``attempt.number`` as the retry
        count, wait on ``attempt.decision`` for the coordinator's
        decision event, set ``attempt.on_event`` for any other event
        kind, and report an abort's cause with ``attempt.note_abort``
        (or ``attempt.refused`` over a fan-out's replies).  Abort reasons
        from the decision event are recorded by the driver.
        """

    def on_client_created(self, client: "ClientDriver") -> None:
        """Hook for systems that attach per-client state (e.g. Natto's
        delay view).  Default: nothing."""


class RaftBackedSystem(TransactionSystem):
    """Partition leaders replicated by Raft, plus one coordinator group
    per datacenter (the deployment of Carousel, Natto and 2PL+2PC).

    Every node gets its own ``cluster.make_clock(name)`` clock and the
    cluster's service time.
    Subclasses set the two node classes and may add constructor keywords
    through :meth:`participant_options` and :meth:`coordinator_options`.
    """

    participant_class: type
    coordinator_class: type

    def setup(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.groups: Dict[int, ReplicationGroup] = {}
        self.leader_names: Dict[int, str] = {}
        make_participant = self._node_factory(
            self.participant_class, self.participant_options()
        )
        for placement in cluster.placements:
            group = self._group(placement, make_participant)
            self.groups[placement.partition_id] = group
            self.leader_names[placement.partition_id] = group.leader_name
        make_coordinator = self._node_factory(
            self.coordinator_class,
            dict(
                partitioner=cluster.partitioner,
                leader_names=self.leader_names,
                **self.coordinator_options(),
            ),
        )
        self.coordinators: Dict[str, ReplicationGroup] = {
            dc: self._group(cluster.coordinator_placement(dc), make_coordinator)
            for dc in cluster.topology.datacenters
        }
        self.after_setup()

    def participant_options(self) -> Dict[str, Any]:
        """Extra constructor keywords for participant replicas."""
        return {}

    def coordinator_options(self) -> Dict[str, Any]:
        """Constructor keywords for coordinator replicas beyond the
        partitioner and the leader names."""
        return {}

    def after_setup(self) -> None:
        """Hook for subclasses (Natto starts its probe proxies here)."""

    def _node_factory(
        self, node_class: type, options: Dict[str, Any]
    ) -> Callable[..., RaftReplica]:
        cluster = self.cluster

        def make(sim, network, name, dc, **kwargs):
            return node_class(
                sim,
                network,
                name,
                dc,
                clock=cluster.make_clock(name),
                service_time=cluster.config.server_service_time,
                **options,
                **kwargs,
            )

        return make

    def _group(self, placement: PartitionPlacement, factory) -> ReplicationGroup:
        cluster = self.cluster
        return ReplicationGroup(
            cluster.sim,
            cluster.network,
            placement,
            replica_factory=factory,
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


class RaftParticipant(ProbeTargetMixin, RaftReplica):
    """Leader (and follower) replica of one data partition.

    An abort decision travels coordinator->participant while the request
    it cancels travels client->participant, so with network jitter the
    abort can win the race.  Tombstones (used by Carousel and Natto) make
    the cancellation order-independent: a request arriving after its own
    abort is refused with the abort's reason instead of leaving a stuck
    prepared mark.  A request handler checks ``txn in
    self._abort_tombstones`` (answering with :meth:`_tombstone_refusal`)
    and otherwise adds ``txn`` to ``_rap_seen``; an abort calls
    :meth:`_bury`; releasing the attempt discards it from ``_rap_seen``.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Names are "p<pid>-<DC>"; see ReplicationGroup.replica_name.
        self.partition_id = int(self.name.split("-")[0][1:])
        self.store = KeyValueStore()
        #: attempt id -> reason of an abort that beat its request here.
        self._abort_tombstones: Dict[str, Optional[str]] = {}
        #: attempts whose request arrived and is not yet released.
        self._rap_seen: Set[str] = set()

    def _bury(self, txn: str, reason: Any) -> None:
        """An abort for ``txn`` arrived: tombstone it if its request has
        not (the request is refused on arrival)."""
        if txn not in self._rap_seen:
            self._abort_tombstones[txn] = reason

    def _tombstone_refusal(self, txn: str) -> Refusal:
        """Refuse a request that arrived after its own abort."""
        return self._refusal(txn, self._abort_tombstones.pop(txn))

    def _refusal(self, txn: str, reason: Any) -> Refusal:
        """A classified ``ok: False`` reply, traced as a refusal."""
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.refuse(reason, node=self.name, txn=txn)
        return Refusal(reason_value(reason))

    def _vote_no(self, request: Any, reason: Any) -> None:
        """Vote no to the coordinator of ``request`` (anything carrying
        ``txn``, ``coordinator``, ``participants`` and ``client``)."""
        self._network.send(
            self,
            request.coordinator,
            "vote",
            VoteReason(
                request.txn,
                self.partition_id,
                "no",
                request.participants,
                request.client,
                reason_value(reason),
            ),
        )


def attempt_id(spec: TransactionSpec, attempt: int) -> str:
    """Protocol-level id for one attempt of one logical transaction.

    Every retry gets a fresh id so server-side state (prepared sets,
    lock tables, queues) never confuses two attempts.
    """
    return f"{spec.txn_id}.{attempt}"
