"""Facade over a partition's replica group.

Transaction systems do not care about Raft internals; they need exactly
one operation — "make this durable on a majority" — plus knowledge of
where the leader is.  :class:`ReplicationGroup` wires up the replicas of
one partition (leader in the placement's first datacenter) and exposes
:meth:`replicate`.

The designated leader (the first replica) takes office at construction
and keeps it for the whole run, so the group is usable at t=0 without
an election round — matching the paper's experiments, which start from
a stable deployment and run failure-free.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.cluster.placement import PartitionPlacement
from repro.net.network import Network
from repro.raft.node import RaftReplica
from repro.sim import Future, Simulator


class ReplicationGroup:
    """All replicas of one partition."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        placement: PartitionPlacement,
        apply_callback: Optional[Callable[[Any, int], None]] = None,
        replica_factory: Optional[Callable[..., RaftReplica]] = None,
        **node_kwargs: Any,
    ) -> None:
        self.placement = placement
        names = [
            self.replica_name(placement.partition_id, dc)
            for dc in placement.datacenters
        ]
        factory = replica_factory or RaftReplica
        self.replicas: List[RaftReplica] = []
        for name, dc in zip(names, placement.datacenters):
            replica = factory(
                sim,
                network,
                name,
                dc,
                peers=names,
                apply_callback=apply_callback,
                **node_kwargs,
            )
            self.replicas.append(replica)
        self.leader = self.replicas[0]
        self.leader.become_leader()

    @staticmethod
    def replica_name(partition_id: int, datacenter: str) -> str:
        return f"p{partition_id}-{datacenter}"

    @property
    def partition_id(self) -> int:
        return self.placement.partition_id

    @property
    def leader_name(self) -> str:
        return self.leader.name

    @property
    def replica_names(self) -> List[str]:
        return [r.name for r in self.replicas]

    def replicate(self, payload: Any) -> Future:
        """Durably replicate ``payload``; resolves at majority commit."""
        return self.leader.propose(payload)

    def replica_in(self, datacenter: str) -> Optional[RaftReplica]:
        """The replica hosted in ``datacenter``, if any."""
        for replica in self.replicas:
            if replica.datacenter == datacenter:
                return replica
        return None

    def closest_replica_name(self, datacenter: str, topology) -> str:
        """Replica with the lowest RTT from ``datacenter`` (TAPIR reads)."""
        return min(
            self.replicas,
            key=lambda r: topology.rtt(datacenter, r.datacenter),
        ).name
