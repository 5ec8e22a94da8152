"""Tests for partition placement."""

import pytest

from repro.cluster import place_partitions


def test_paper_layout_5dc_5partitions_3replicas():
    dcs = ("VA", "WA", "PR", "NSW", "SG")
    placements = place_partitions(dcs, 5, 3)
    # One partition leader per datacenter.
    leaders = [p.datacenters[0] for p in placements]
    assert sorted(leaders) == sorted(dcs)
    # At most one replica of a partition per datacenter.
    for p in placements:
        assert len(set(p.datacenters)) == 3


def test_every_dc_hosts_balanced_replica_count():
    dcs = ("VA", "WA", "PR", "NSW", "SG")
    placements = place_partitions(dcs, 5, 3)
    hosted = {dc: 0 for dc in dcs}
    for p in placements:
        for dc in p.datacenters:
            hosted[dc] += 1
    assert set(hosted.values()) == {3}  # 5 partitions * 3 replicas / 5 DCs


def test_more_partitions_than_datacenters_wraps():
    placements = place_partitions(("DC1", "DC2", "DC3"), 12, 3)
    assert len(placements) == 12
    for p in placements:
        assert set(p.datacenters) == {"DC1", "DC2", "DC3"}


def test_leader_is_first_datacenter():
    p = place_partitions(("A", "B", "C"), 1, 2)[0]
    # The leader's datacenter first, then the followers'.
    assert p.datacenters == ("A", "B")


def test_replication_factor_exceeding_dcs_rejected():
    with pytest.raises(ValueError):
        place_partitions(("A", "B"), 3, 3)
