"""Table 1: network round-trip delays between the five Azure DCs.

In the paper this is measurement data (from Domino); in this repository
it is the topology configuration — the "reproduction" verifies that the
simulator's measured round trips match the configured matrix, probing
through the real message path (including clock skew and service time).
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.node import Node
from repro.net.network import Network
from repro.net.probing import ProbeProxy, ProbeTargetMixin
from repro.net.topology import AZURE_DATACENTERS, azure_topology
from repro.sim import Simulator


class _Responder(ProbeTargetMixin, Node):
    pass


def measure_rtt_matrix(probe_seconds: float = 1.0) -> Dict[tuple, float]:
    """Measured round-trip delays (ms) between all datacenter pairs."""
    sim = Simulator()
    topology = azure_topology()
    network = Network(sim, topology)
    for dc in AZURE_DATACENTERS:
        network.register(_Responder(sim, f"server-{dc}", dc))
    proxies = {}
    for dc in AZURE_DATACENTERS:
        proxy = ProbeProxy(
            sim,
            network,
            dc,
            [f"server-{other}" for other in AZURE_DATACENTERS if other != dc],
        )
        proxy.start()
        proxies[dc] = proxy
    sim.run(until=probe_seconds + 0.5)

    measured = {}
    for src, proxy in proxies.items():
        for dst in AZURE_DATACENTERS:
            if dst == src:
                continue
            one_way = proxy.estimate(f"server-{dst}")
            if one_way is not None:
                measured[(src, dst)] = 2.0 * one_way * 1000.0
    return measured


def run() -> Dict[tuple, float]:
    """Print the paper's and the measured RTTs; return the measured."""
    topology = azure_topology()
    measured = measure_rtt_matrix()
    print("== Table 1: Azure inter-datacenter RTTs (ms) ==")
    print(f"{'pair':12s} {'paper':>8s} {'measured':>9s}")
    for (a, b), paper_value in sorted(
        {
            pair: topology.rtt(*pair)
            for pair in measured
            if pair[0] < pair[1]
        }.items()
    ):
        print(f"{a+'-'+b:12s} {paper_value:8.0f} {measured[(a, b)]:9.1f}")
    return measured

