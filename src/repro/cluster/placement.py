"""Leader and replica placement across datacenters.

The paper's deployment: 5 partitions, 3 replicas each, spread over 5
datacenters so that every datacenter hosts exactly one partition leader
and at most one replica of any partition.  We generalise: partition ``i``
places its leader in datacenter ``i mod D`` and its followers in the next
``replication_factor - 1`` datacenters (wrapping), which reproduces the
paper's layout for 5 partitions / 5 DCs / 3 replicas and degrades
sensibly for the Figure 14 local-cluster sweeps (12 partitions, 3 DCs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class PartitionPlacement:
    """Where one partition's replicas live.

    ``datacenters[0]`` hosts the leader; the rest host followers.
    """

    partition_id: int
    datacenters: tuple


def place_partitions(
    datacenters: Sequence[str],
    num_partitions: int,
    replication_factor: int = 3,
) -> List[PartitionPlacement]:
    """Round-robin placement of partition replica groups over datacenters."""
    if replication_factor > len(datacenters):
        raise ValueError(
            f"replication factor {replication_factor} exceeds the "
            f"{len(datacenters)} available datacenters"
        )
    placements = []
    for pid in range(num_partitions):
        chosen = tuple(
            datacenters[(pid + j) % len(datacenters)]
            for j in range(replication_factor)
        )
        placements.append(PartitionPlacement(pid, chosen))
    return placements
