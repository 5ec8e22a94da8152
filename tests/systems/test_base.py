"""Tests for the shared deployment scaffolding."""

import inspect

import pytest

from repro.cluster.clock import ClockConfig
from repro.net import probing
from repro.net.loss import LossConfig
from repro.net.probing import ClientDelayView
from repro.net.topology import azure_topology, local_cluster_topology
from repro.systems.base import Cluster, SystemConfig, attempt_id
from repro.txn.transaction import TransactionSpec


def test_default_config_matches_paper_deployment():
    config = SystemConfig()
    assert config.num_partitions == 5
    assert config.replication_factor == 3
    assert config.probe_interval == 0.010   # 10 ms probes
    assert probing.WINDOW_SECONDS == 1.0    # 1 s sliding window
    assert probing.PERCENTILE == 95.0       # p95 estimates
    refresh = inspect.signature(ClientDelayView).parameters["refresh_interval"]
    assert refresh.default == 0.1           # 100 ms client refresh


def test_with_overrides_returns_new_config():
    base = SystemConfig()
    changed = base.with_overrides(num_partitions=12)
    assert changed.num_partitions == 12
    assert base.num_partitions == 5


def test_cluster_builds_placements_for_every_partition():
    cluster = Cluster(azure_topology(), SystemConfig(num_partitions=5))
    assert len(cluster.placements) == 5
    leaders = {p.datacenters[0] for p in cluster.placements}
    assert leaders == set(azure_topology().datacenters)


def test_coordinator_placement_is_leader_local():
    cluster = Cluster(azure_topology(), SystemConfig())
    for dc in azure_topology().datacenters:
        placement = cluster.coordinator_placement(dc)
        assert placement.datacenters[0] == dc
        assert len(placement.datacenters) == 3
        assert placement.partition_id >= 1000  # out of the data range


def test_make_clock_derives_independent_streams():
    cluster = Cluster(
        azure_topology(),
        SystemConfig(clock=ClockConfig(max_offset=0.005)),
        seed=1,
    )
    a = cluster.make_clock("node-a")
    b = cluster.make_clock("node-b")
    assert a.offset != b.offset  # overwhelmingly likely with max_offset>0


def test_same_seed_same_clock_offsets():
    def offsets(seed):
        cluster = Cluster(
            azure_topology(),
            SystemConfig(clock=ClockConfig(max_offset=0.005)),
            seed=seed,
        )
        return [cluster.make_clock(f"n{i}").offset for i in range(3)]

    assert offsets(7) == offsets(7)
    assert offsets(7) != offsets(8)


def test_loss_config_requires_rng_wiring():
    config = SystemConfig(loss=LossConfig(loss_rate=0.01))
    cluster = Cluster(azure_topology(), config)
    assert cluster.network._loss is not None


def test_local_cluster_supports_twelve_partitions():
    cluster = Cluster(
        local_cluster_topology(), SystemConfig(num_partitions=12)
    )
    assert len(cluster.placements) == 12


def test_attempt_ids_encode_txn_and_attempt():
    spec = TransactionSpec("client:42", ("k",), ())
    assert attempt_id(spec, 0) == "client:42.0"
    assert attempt_id(spec, 17) == "client:42.17"
    assert attempt_id(spec, 0) != attempt_id(spec, 1)
