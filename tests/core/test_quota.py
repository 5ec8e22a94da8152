"""Tests for priority quotas (the untrusted-client extension)."""

import pytest

from repro.core.quota import PriorityQuota
from repro.txn.priority import Priority


def test_low_priority_is_never_charged():
    quota = PriorityQuota(rate=0.0, burst=1.0)
    for i in range(10):
        assert quota.authorize("c", f"t{i}", Priority.LOW, 0.0) is Priority.LOW
    assert quota.available_tokens("c", 0.0) == 1.0


def test_high_priority_consumes_tokens_then_demotes():
    quota = PriorityQuota(rate=0.0, burst=2.0)
    assert quota.authorize("c", "t1", Priority.HIGH, 0.0) is Priority.HIGH
    assert quota.authorize("c", "t2", Priority.HIGH, 0.0) is Priority.HIGH
    assert quota.authorize("c", "t3", Priority.HIGH, 0.0) is Priority.LOW
    assert quota.demotions == 1


def test_tokens_refill_over_time():
    quota = PriorityQuota(rate=1.0, burst=1.0)
    assert quota.authorize("c", "t1", Priority.HIGH, 0.0) is Priority.HIGH
    assert quota.authorize("c", "t2", Priority.HIGH, 0.1) is Priority.LOW
    # One second later a token has accrued.
    assert quota.authorize("c", "t3", Priority.HIGH, 1.2) is Priority.HIGH


def test_burst_caps_accumulation():
    quota = PriorityQuota(rate=100.0, burst=3.0)
    assert quota.available_tokens("c", 100.0) == 3.0


def test_clients_have_independent_buckets():
    quota = PriorityQuota(rate=0.0, burst=1.0)
    assert quota.authorize("a", "ta", Priority.HIGH, 0.0) is Priority.HIGH
    assert quota.authorize("b", "tb", Priority.HIGH, 0.0) is Priority.HIGH


def test_retries_are_not_recharged():
    quota = PriorityQuota(rate=0.0, burst=1.0)
    assert quota.authorize("c", "t1", Priority.HIGH, 0.0) is Priority.HIGH
    # The same transaction retrying keeps its admission without paying.
    for _ in range(5):
        assert quota.authorize("c", "t1", Priority.HIGH, 0.0) is Priority.HIGH
    # A demoted transaction stays demoted across retries (stable order).
    assert quota.authorize("c", "t2", Priority.HIGH, 0.0) is Priority.LOW
    assert quota.authorize("c", "t2", Priority.HIGH, 0.0) is Priority.LOW


def test_finish_clears_sticky_admission():
    quota = PriorityQuota(rate=0.0, burst=1.0)
    quota.authorize("c", "t1", Priority.HIGH, 0.0)
    quota.finish("t1")
    assert "t1" not in quota._admitted


def test_medium_priority_is_also_charged():
    quota = PriorityQuota(rate=0.0, burst=1.0)
    assert quota.authorize("c", "t1", Priority.MEDIUM, 0.0) is Priority.MEDIUM
    assert quota.authorize("c", "t2", Priority.MEDIUM, 0.0) is Priority.LOW


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        PriorityQuota(rate=-1.0, burst=1.0)
    with pytest.raises(ValueError):
        PriorityQuota(rate=1.0, burst=0.0)


def test_quota_demotes_in_live_system():
    """End to end: a zero-rate quota turns every 'high' transaction into
    a low-priority one — PA never fires."""
    from repro.core import Natto, natto_pa
    from repro.harness import run_until_settled
    from tests.helpers import build_system, rmw_spec
    from repro.txn.priority import Priority as P

    quota = PriorityQuota(rate=0.0, burst=1.0)
    cluster, clients, stats = build_system(
        Natto(natto_pa(), quota=quota), client_dcs=["VA"]
    )
    cluster.sim.run(until=2.5)
    client = clients[0]

    def staged():
        client.submit(rmw_spec("t1", ["hot"], priority=P.HIGH))
        yield 0.02
        client.submit(rmw_spec("t2", ["hot"], priority=P.HIGH))
        yield 0.02
        client.submit(rmw_spec("t3", ["hot"], priority=P.HIGH))

    cluster.sim.spawn(staged())
    run_until_settled(cluster.sim, clients, after=2.5 + 2 * 0.02, cap=30.0)
    assert all(r.committed for r in stats.records)
    # Only the first high-priority admission fit the burst of 1.
    assert quota.demotions == 2
