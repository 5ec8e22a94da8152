"""Tests for topologies and the Table 1 matrix."""

import pytest

from repro.net import (
    AZURE_DATACENTERS,
    AZURE_RTT_MS,
    azure_topology,
    hybrid_cloud_topology,
    local_cluster_topology,
)


def test_table1_values_are_verbatim():
    topo = azure_topology()
    assert topo.rtt("VA", "WA") == 67.0
    assert topo.rtt("VA", "PR") == 80.0
    assert topo.rtt("VA", "NSW") == 196.0
    assert topo.rtt("VA", "SG") == 214.0
    assert topo.rtt("WA", "PR") == 136.0
    assert topo.rtt("WA", "NSW") == 175.0
    assert topo.rtt("WA", "SG") == 163.0
    assert topo.rtt("PR", "NSW") == 234.0
    assert topo.rtt("PR", "SG") == 149.0
    assert topo.rtt("NSW", "SG") == 87.0


def test_rtt_is_symmetric():
    topo = azure_topology()
    for a in AZURE_DATACENTERS:
        for b in AZURE_DATACENTERS:
            assert topo.rtt(a, b) == topo.rtt(b, a)


def test_intra_dc_delay_is_small():
    topo = azure_topology()
    assert topo.rtt("VA", "VA") < 1.0


def test_one_way_is_half_rtt_in_seconds():
    topo = azure_topology()
    assert topo.one_way("VA", "SG") == pytest.approx(0.107)


def test_unknown_pair_raises():
    topo = azure_topology()
    with pytest.raises(KeyError):
        topo.rtt("VA", "MARS")


def test_all_pairs_present():
    assert len(AZURE_RTT_MS) == 10  # C(5,2)


def test_local_cluster_uses_paper_rtts():
    topo = local_cluster_topology()
    values = sorted(
        topo.rtt(a, b)
        for i, a in enumerate(topo.datacenters)
        for b in topo.datacenters[i + 1:]
    )
    assert values == [4.0, 6.0, 8.0]


def test_local_cluster_requires_three_rtts():
    with pytest.raises(ValueError):
        local_cluster_topology((4.0, 6.0))


def test_hybrid_topology_replaces_us_datacenters():
    topo = hybrid_cloud_topology()
    assert "VA" not in topo.datacenters
    assert "WA" not in topo.datacenters
    assert "AWS-USE" in topo.datacenters
    assert "AWS-USW" in topo.datacenters
    # Geographic magnitudes preserved.
    assert topo.rtt("AWS-USE", "AWS-USW") == 67.0
    assert topo.rtt("AWS-USE", "SG") == 214.0


def test_hybrid_cross_provider_links_are_jittery():
    topo = hybrid_cloud_topology(cross_provider_jitter=4.0)
    assert topo.jitter_multiplier("AWS-USE", "PR") == 4.0
    assert topo.jitter_multiplier("PR", "AWS-USE") == 4.0
    assert topo.jitter_multiplier("PR", "SG") == 1.0
    assert topo.jitter_multiplier("AWS-USE", "AWS-USW") == 1.0
