"""A partition's replica group.

:class:`ReplicationGroup` wires up the replicas of one partition (leader
in the placement's first datacenter); a system proposes through
``group.leader``.

The designated leader (the first replica) takes office at construction
and keeps it for the whole run, so the group is usable at t=0 without
an election round — matching the paper's experiments, which start from
a stable deployment and run failure-free.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cluster.placement import PartitionPlacement
from repro.net.network import Network
from repro.raft.node import RaftReplica
from repro.sim import Simulator


class ReplicationGroup:
    """All replicas of one partition."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        placement: PartitionPlacement,
        replica_factory: Optional[Callable[..., RaftReplica]] = None,
    ) -> None:
        self.placement = placement
        names = [
            self.replica_name(placement.partition_id, dc)
            for dc in placement.datacenters
        ]
        factory = replica_factory or RaftReplica
        self.replicas: List[RaftReplica] = [
            factory(sim, network, name, dc, peers=names)
            for name, dc in zip(names, placement.datacenters)
        ]
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
