"""Datacenter topologies and round-trip delay matrices.

``AZURE_RTT_MS`` is Table 1 of the paper verbatim: average round-trip
delays (milliseconds) between the five Azure datacenters used in the
evaluation — Virginia (VA), Washington (WA), Paris (PR), New South Wales
(NSW) and Singapore (SG), from the Domino measurement data.

The hybrid AWS+Azure topology (Figure 13) replaces VA and WA with AWS
us-east / us-west.  The paper does not publish its AWS delay matrix, so
we synthesize one: the geographic legs keep Azure-like magnitudes (the
same cities are involved) and cross-provider links get a higher jitter
coefficient, which is the property Figure 13 actually probes.  This
substitution is recorded in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Tuple

#: The five Azure datacenters of the paper's default deployment.
AZURE_DATACENTERS: Tuple[str, ...] = ("VA", "WA", "PR", "NSW", "SG")

#: Table 1 — average network roundtrip delays in milliseconds.
AZURE_RTT_MS: Dict[Tuple[str, str], float] = {
    ("VA", "WA"): 67.0,
    ("VA", "PR"): 80.0,
    ("VA", "NSW"): 196.0,
    ("VA", "SG"): 214.0,
    ("WA", "PR"): 136.0,
    ("WA", "NSW"): 175.0,
    ("WA", "SG"): 163.0,
    ("PR", "NSW"): 234.0,
    ("PR", "SG"): 149.0,
    ("NSW", "SG"): 87.0,
}

#: Round-trip delay between colocated client/server processes, in ms.
#: "Natto clients are application servers that also run in the same
#: datacenters as Natto data servers" — intra-DC hops are sub-millisecond.
INTRA_DC_RTT_MS = 0.5


@dataclass(frozen=True)
class Topology:
    """A set of datacenters plus symmetric pairwise RTTs (milliseconds).

    ``jitter_scale`` optionally assigns per-pair multipliers on whatever
    jitter model the network applies; the hybrid-cloud topology uses it
    to make cross-provider links noisier.
    """

    name: str
    datacenters: Tuple[str, ...]
    rtt_ms: Mapping[Tuple[str, str], float]
    intra_dc_rtt_ms: float = INTRA_DC_RTT_MS
    jitter_scale: Mapping[Tuple[str, str], float] = field(default_factory=dict)

    def rtt(self, a: str, b: str) -> float:
        """Round-trip delay in milliseconds between datacenters a and b."""
        if a == b:
            return self.intra_dc_rtt_ms
        value = self.rtt_ms.get((a, b))
        if value is None:
            value = self.rtt_ms.get((b, a))
        if value is None:
            raise KeyError(f"no delay configured between {a!r} and {b!r}")
        return value

    def one_way(self, a: str, b: str) -> float:
        """One-way delay in **seconds** (RTT/2, as in the paper's model)."""
        return self.rtt(a, b) / 2.0 / 1000.0

    def jitter_multiplier(self, a: str, b: str) -> float:
        pair = (a, b) if (a, b) in self.jitter_scale else (b, a)
        return float(self.jitter_scale.get(pair, 1.0))


def azure_topology() -> Topology:
    """The paper's default 5-datacenter Azure deployment (Table 1)."""
    return Topology("azure-5dc", AZURE_DATACENTERS, dict(AZURE_RTT_MS))


def local_cluster_topology(
    rtts_ms: Sequence[float] = (4.0, 6.0, 8.0),
) -> Topology:
    """The Figure 14 local cluster: three simulated datacenters.

    The paper gives the three pairwise RTTs as 4, 6 and 8 ms.
    """
    if len(rtts_ms) != 3:
        raise ValueError("local cluster topology takes exactly 3 RTTs")
    dcs = ("DC1", "DC2", "DC3")
    rtt = {
        ("DC1", "DC2"): float(rtts_ms[0]),
        ("DC1", "DC3"): float(rtts_ms[1]),
        ("DC2", "DC3"): float(rtts_ms[2]),
    }
    return Topology("local-3dc", dcs, rtt, intra_dc_rtt_ms=0.2)


def hybrid_cloud_topology(cross_provider_jitter: float = 4.0) -> Topology:
    """Figure 13's hybrid deployment: AWS us-east/us-west + 3 Azure DCs.

    VA -> AWS-USE (same region family), WA -> AWS-USW.  Geographic legs
    reuse Azure-like magnitudes; links that cross the provider boundary
    get ``cross_provider_jitter`` times the baseline jitter.
    """
    dcs = ("AWS-USE", "AWS-USW", "PR", "NSW", "SG")
    rename = {"VA": "AWS-USE", "WA": "AWS-USW"}
    rtt: Dict[Tuple[str, str], float] = {}
    for (a, b), value in AZURE_RTT_MS.items():
        rtt[(rename.get(a, a), rename.get(b, b))] = value
    jitter: Dict[Tuple[str, str], float] = {}
    aws = {"AWS-USE", "AWS-USW"}
    for a, b in rtt:
        if (a in aws) != (b in aws):
            jitter[(a, b)] = cross_provider_jitter
    return Topology("hybrid-aws-azure", dcs, rtt, jitter_scale=jitter)
