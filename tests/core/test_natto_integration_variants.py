"""Cross-variant integration checks: every Natto variant under the same
moderate contention commits everything and keeps the mechanism ladder's
latency ordering loosely monotonic.

The commit check runs with the convergence budget of 1000 retries,
because a LOW transaction retrying under OCC behind a remote prepare
may need more than the default 100 before the key is released, and
the client promises no commit within that budget."""

import pytest

from repro.core import (
    Natto,
    natto_cp,
    natto_lecsf,
    natto_pa,
    natto_recsf,
    natto_ts,
)
from repro.harness import run_until_settled
from repro.systems.client import MAX_RETRIES
from repro.txn.priority import Priority

from tests.helpers import build_system, rmw_spec

WARMUP = 2.5
LADDER = [
    ("Natto-TS", natto_ts),
    ("Natto-LECSF", natto_lecsf),
    ("Natto-PA", natto_pa),
    ("Natto-CP", natto_cp),
    ("Natto-RECSF", natto_recsf),
]


def run_burst(config_factory, seed=0, max_retries=MAX_RETRIES):
    cluster, clients, stats = build_system(
        Natto(config_factory()),
        client_dcs=["VA", "SG"],
        seed=seed,
        max_retries=max_retries,
    )
    cluster.sim.run(until=WARMUP)

    def burst():
        for i in range(6):
            for j, client in enumerate(clients):
                priority = Priority.HIGH if (i + j) % 3 == 0 else Priority.LOW
                client.submit(
                    rmw_spec(
                        f"t{i}-{j}",
                        [f"hot-{(i + j) % 2}"],
                        priority=priority,
                    )
                )
            yield 0.25

    cluster.sim.spawn(burst())
    run_until_settled(
        cluster.sim, clients, after=WARMUP + 5 * 0.25, cap=WARMUP + 120
    )
    return cluster, clients, stats


@pytest.mark.parametrize("name,factory", LADDER)
def test_every_variant_commits_the_burst(name, factory):
    # A LOW transaction whose key is held by a remote prepare is aborted
    # with OCC_CONFLICT and retried every ~3.0 ms (one local round trip
    # plus the 2 ms timestamp margin).  One full remote hold on hot-0 is
    # 444 ms (reads to SG 107 + coordinator replication SG-WA 163 +
    # commit to VA 107 + Natto-TS's write replication before release
    # VA-WA 67), so 444 / 3.0 ~ 148 retries.  A key here can be held
    # back to back by at most 5 other transactions of the burst, at most
    # about 740 retries; 1000 is the convergence budget the serializable
    # test and the fuzzer use.
    cluster, clients, stats = run_burst(factory, max_retries=1000)
    assert len(stats.records) == 12
    assert all(r.committed for r in stats.records), name


@pytest.mark.parametrize("name,factory", LADDER)
def test_no_variant_leaves_server_state_behind(name, factory):
    cluster, clients, stats = run_burst(factory)
    for group in clients[0].system.groups.values():
        leader = group.leader
        assert len(leader.prepared) == 0, name
        assert leader.queue == [], name
        assert leader.waiting == [], name
        assert leader._conditions == {}, name
        assert leader._applied_early == set(), name


def test_high_priority_p95_never_worse_up_the_ladder():
    """Each added mechanism must not hurt the high-priority class in a
    scenario with genuine low/high conflicts (allow 10% noise)."""
    import numpy as np

    p95s = []
    for name, factory in LADDER:
        _, _, stats = run_burst(factory)
        highs = [
            r.latency for r in stats.records if r.priority is Priority.HIGH
        ]
        p95s.append((name, float(np.percentile(highs, 95))))
    for (prev_name, prev), (name, current) in zip(p95s, p95s[1:]):
        assert current <= prev * 1.10, (prev_name, prev, name, current)
