"""Tests for the three paper workloads."""

import numpy as np
import pytest

from repro.txn.priority import Priority
from repro.workloads import (
    RetwisWorkload,
    SmallBankWorkload,
    UniformKeys,
    YcsbTWorkload,
)
from repro.workloads.smallbank import INITIAL_BALANCE, parse_balance


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# YCSB+T


def test_ycsbt_is_six_rmw_operations():
    w = YcsbTWorkload(rng(), num_keys=1000)
    spec = w.next_transaction("c1")
    assert len(spec.read_keys) == 6
    assert spec.read_keys == spec.write_keys
    assert len(set(spec.read_keys)) == 6  # distinct keys


def test_ycsbt_writes_modify_read_values():
    w = YcsbTWorkload(rng(), num_keys=1000)
    spec = w.next_transaction("c1")
    reads = {k: f"value-of-{k}" for k in spec.read_keys}
    writes = spec.make_writes(reads)
    assert set(writes) == set(spec.write_keys)
    for key, value in writes.items():
        assert len(value) <= 64


def test_ycsbt_txn_ids_are_unique_per_client():
    w = YcsbTWorkload(rng(), num_keys=1000)
    ids = {w.next_transaction("c1").txn_id for _ in range(50)}
    ids |= {w.next_transaction("c2").txn_id for _ in range(50)}
    assert len(ids) == 100


def test_priority_fraction_default_ten_percent():
    w = YcsbTWorkload(rng(), num_keys=1000)
    specs = [w.next_transaction("c") for _ in range(4000)]
    high = sum(1 for s in specs if s.priority is Priority.HIGH)
    assert 0.07 < high / len(specs) < 0.13


def test_priority_fraction_override():
    w = YcsbTWorkload(rng(), num_keys=1000, high_priority_fraction=0.5)
    specs = [w.next_transaction("c") for _ in range(2000)]
    high = sum(1 for s in specs if s.priority is Priority.HIGH)
    assert 0.45 < high / len(specs) < 0.55


# ---------------------------------------------------------------------------
# Retwis


def test_retwis_mix_matches_paper_profile():
    w = RetwisWorkload(rng(), num_keys=10_000)
    counts = {}
    for _ in range(10_000):
        spec = w.next_transaction("c")
        counts[spec.txn_type] = counts.get(spec.txn_type, 0) + 1
    total = sum(counts.values())
    assert counts["add_user"] / total == pytest.approx(0.05, abs=0.02)
    assert counts["follow"] / total == pytest.approx(0.15, abs=0.02)
    assert counts["post_tweet"] / total == pytest.approx(0.30, abs=0.02)
    assert counts["load_timeline"] / total == pytest.approx(0.50, abs=0.02)


def test_retwis_key_counts_per_type():
    w = RetwisWorkload(rng(1), num_keys=10_000)
    seen = set()
    for _ in range(2000):
        spec = w.next_transaction("c")
        seen.add(spec.txn_type)
        if spec.txn_type == "add_user":
            assert len(spec.read_keys) == 1 and len(spec.write_keys) == 3
        elif spec.txn_type == "follow":
            assert len(spec.read_keys) == 2 and len(spec.write_keys) == 2
        elif spec.txn_type == "post_tweet":
            assert len(spec.read_keys) == 3 and len(spec.write_keys) == 5
        else:
            assert 1 <= len(spec.read_keys) <= 10
            assert spec.write_keys == ()
    assert seen == {"add_user", "follow", "post_tweet", "load_timeline"}


def test_retwis_with_uniform_keys():
    w = RetwisWorkload(
        rng(), key_chooser=UniformKeys(1000, rng(7))
    )
    spec = w.next_transaction("c")
    keys = spec.read_keys + spec.write_keys
    assert all(key.startswith("key-") for key in keys)


# ---------------------------------------------------------------------------
# SmallBank


def test_smallbank_mix_matches_oltpbench():
    w = SmallBankWorkload(rng(), num_users=10_000, hot_users=100)
    counts = {}
    for _ in range(10_000):
        spec = w.next_transaction("c")
        counts[spec.txn_type] = counts.get(spec.txn_type, 0) + 1
    total = sum(counts.values())
    assert counts["send_payment"] / total == pytest.approx(0.25, abs=0.02)
    for txn_type in (
        "balance",
        "deposit_checking",
        "transact_savings",
        "amalgamate",
        "write_check",
    ):
        assert counts[txn_type] / total == pytest.approx(0.15, abs=0.02)


def test_smallbank_hot_users_receive_most_traffic():
    w = SmallBankWorkload(rng(2), num_users=100_000, hot_users=100)
    hot = 0
    trials = 2000
    for _ in range(trials):
        spec = w.next_transaction("c")
        keys = spec.read_keys + spec.write_keys
        users = {int(k.split(":")[1]) for k in keys}
        if any(u < 100 for u in users):
            hot += 1
    assert hot / trials > 0.85


def test_send_payment_transfers_conserve_money():
    w = SmallBankWorkload(rng(3), num_users=1000, hot_users=10)
    spec = None
    while spec is None or spec.txn_type != "send_payment":
        spec = w.next_transaction("c")
    src, dst = spec.read_keys
    writes = spec.make_writes({src: "500", dst: "200"})
    if writes:
        total_after = parse_balance(writes[src]) + parse_balance(writes[dst])
        assert total_after == 700


def test_send_payment_insufficient_funds_writes_nothing():
    w = SmallBankWorkload(rng(4), num_users=1000, hot_users=10)
    spec = None
    while spec is None or spec.txn_type != "send_payment":
        spec = w.next_transaction("c")
    src, dst = spec.read_keys
    assert spec.make_writes({src: "0", dst: "50"}) == {}


def test_amalgamate_zeroes_source_accounts():
    w = SmallBankWorkload(rng(5), num_users=1000, hot_users=10)
    spec = None
    while spec is None or spec.txn_type != "amalgamate":
        spec = w.next_transaction("c")
    ss, sc, dc = spec.read_keys
    writes = spec.make_writes({ss: "100", sc: "200", dc: "50"})
    assert writes[ss] == "0"
    assert writes[sc] == "0"
    assert parse_balance(writes[dc]) == 350


def test_parse_balance_handles_init_pattern():
    assert parse_balance("init:checking:5" + "0" * 50) == INITIAL_BALANCE
    assert parse_balance("123") == 123


def test_high_priority_by_type():
    w = SmallBankWorkload(
        rng(6),
        num_users=1000,
        hot_users=10,
        high_priority_types={"send_payment"},
    )
    for _ in range(500):
        spec = w.next_transaction("c")
        expected = (
            Priority.HIGH
            if spec.txn_type == "send_payment"
            else Priority.LOW
        )
        assert spec.priority is expected


def test_two_user_transactions_pick_distinct_users():
    w = SmallBankWorkload(rng(7), num_users=1000, hot_users=10)
    for _ in range(300):
        spec = w.next_transaction("c")
        if spec.txn_type in ("send_payment", "amalgamate"):
            keys = set(spec.read_keys) | set(spec.write_keys)
            checking_users = [
                int(k.split(":")[1])
                for k in keys
                if k.startswith("checking:")
            ]
            assert len(set(checking_users)) == len(checking_users)
