"""Shared helpers for system-level tests: build a small deployment and
run transactions through it."""

from __future__ import annotations

from typing import List, Optional

from repro.net.topology import Topology, azure_topology
from repro.systems.base import Cluster, SystemConfig, TransactionSystem
from repro.systems.client import ClientDriver
from repro.txn.priority import Priority
from repro.txn.stats import StatsCollector
from repro.txn.transaction import TransactionSpec


def build_system(
    system: TransactionSystem,
    topology: Optional[Topology] = None,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
    client_dcs: Optional[List[str]] = None,
):
    """Deploy ``system`` on a cluster with one client per datacenter."""
    cluster = Cluster(topology or azure_topology(), config or SystemConfig(), seed)
    system.setup(cluster)
    stats = StatsCollector()
    clients = []
    for dc in client_dcs or cluster.topology.datacenters:
        client = ClientDriver(
            cluster.sim,
            cluster.network,
            f"client-{dc}-{len(clients)}",
            dc,
            system,
            stats,
            clock=cluster.make_clock(f"client-{dc}-{len(clients)}"),
        )
        clients.append(client)
    return cluster, clients, stats


def rmw_spec(txn_id, keys, priority=Priority.LOW, marker="w"):
    """Read-modify-write over ``keys``: new value = old value + marker."""
    keys = tuple(keys)
    return TransactionSpec(
        txn_id=txn_id,
        read_keys=keys,
        write_keys=keys,
        priority=priority,
        compute_writes=lambda reads: {
            k: (reads[k] + marker)[-64:] for k in keys
        },
    )


def write_spec(txn_id, keys, value, priority=Priority.LOW):
    """Blind write of ``value`` to every key (still reads them — 2FI)."""
    keys = tuple(keys)
    return TransactionSpec(
        txn_id=txn_id,
        read_keys=keys,
        write_keys=keys,
        priority=priority,
        compute_writes=lambda reads: {k: value for k in keys},
    )


def read_spec(txn_id, keys, priority=Priority.LOW):
    keys = tuple(keys)
    return TransactionSpec(
        txn_id=txn_id,
        read_keys=keys,
        write_keys=(),
        priority=priority,
        compute_writes=lambda reads: {},
    )
