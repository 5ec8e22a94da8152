"""Cluster substrate: per-node clocks and the node/service-time model.

* :mod:`repro.cluster.clock` — skewed clocks with an NTP-like
  loose synchronization bound (Natto only assumes loose sync).
* :mod:`repro.cluster.node` — base class for simulated machines with a
  single-core service-time model (messages queue FIFO behind a busy
  cursor), which is what produces saturation and peak-throughput
  behaviour in the evaluation.
* :mod:`repro.cluster.partition` — hash partitioning of the key space.
* :mod:`repro.cluster.placement` — leader/replica placement across
  datacenters (one partition leader per datacenter, as in the paper).
"""

from repro.cluster.clock import Clock, ClockConfig
from repro.cluster.node import Node, ServiceModel
from repro.cluster.partition import Partitioner
from repro.cluster.placement import PartitionPlacement, place_partitions

__all__ = [
    "Clock",
    "ClockConfig",
    "Node",
    "PartitionPlacement",
    "Partitioner",
    "ServiceModel",
    "place_partitions",
]
