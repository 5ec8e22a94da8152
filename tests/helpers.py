"""Shared helpers for system-level tests: build a small deployment and
run transactions through it."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import List, Optional

from repro.harness.experiment import deploy
from repro.net.topology import Topology, azure_topology
from repro.sim import Simulator
from repro.systems.base import SystemConfig, TransactionSystem
from repro.systems.client import MAX_RETRIES
from repro.txn.priority import Priority
from repro.txn.transaction import TransactionSpec


def build_system(
    system: TransactionSystem,
    topology: Optional[Topology] = None,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
    client_dcs: Optional[List[str]] = None,
    max_retries: int = MAX_RETRIES,
):
    """Deploy ``system`` with one client per datacenter (or per entry of
    ``client_dcs``), the ``k``-th named ``client-{dc}-{k}``."""
    topology = topology or azure_topology()
    return deploy(
        system,
        topology,
        config or SystemConfig(),
        seed,
        [
            (f"client-{dc}-{k}", dc)
            for k, dc in enumerate(client_dcs or topology.datacenters)
        ],
        max_retries,
    )


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


@contextmanager
def collector(enabled: bool):
    """Turn the cyclic garbage collector on or off for the block (off:
    only explicit collections free reference cycles); restore its state
    after."""
    was_enabled = gc.isenabled()
    if enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def live_simulators() -> int:
    """How many :class:`Simulator` objects exist, garbage included."""
    return sum(isinstance(obj, Simulator) for obj in gc.get_objects())
