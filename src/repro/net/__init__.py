"""Simulated wide-area network.

* :mod:`repro.net.topology` — datacenter sets and round-trip delay
  matrices: the paper's Table 1 Azure matrix, the hybrid AWS+Azure
  deployment of Figure 13, and the 3-DC local cluster of Figure 14.
* :mod:`repro.net.delay` — one-way delay models: constant, and the
  Pareto model used for the Figure 11 variance sweep.
* :mod:`repro.net.loss` — packet loss: per-message geometric
  retransmission with a TCP-like RTO, plus a Mathis-formula bandwidth
  cap that makes throughput collapse under loss (Figure 12).
* :mod:`repro.net.network` — delivery: one-way messages and
  request/response RPC between :class:`repro.cluster.node.Node`s,
  serialized through per-datacenter-pair bandwidth pipes.
* :mod:`repro.net.probing` — Domino-style network measurement: per-DC
  proxies probing partition leaders every 10 ms, a sliding-window p95
  one-way-delay estimator, and the client-side cached view.
"""

from repro.net.delay import (
    ConstantDelay,
    DelayModel,
    ParetoDelay,
    make_delay_model,
)
from repro.net.loss import LossConfig, LossModel, mathis_throughput
from repro.net.message import Message
from repro.net.network import Network
from repro.net.probing import ProbeProxy
from repro.net.topology import (
    AZURE_DATACENTERS,
    AZURE_RTT_MS,
    Topology,
    azure_topology,
    hybrid_cloud_topology,
    local_cluster_topology,
)

__all__ = [
    "AZURE_DATACENTERS",
    "AZURE_RTT_MS",
    "ConstantDelay",
    "DelayModel",
    "LossConfig",
    "LossModel",
    "Message",
    "Network",
    "ParetoDelay",
    "ProbeProxy",
    "Topology",
    "azure_topology",
    "hybrid_cloud_topology",
    "local_cluster_topology",
    "make_delay_model",
    "mathis_throughput",
]
