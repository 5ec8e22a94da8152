"""Tests for the packet-loss models."""

import numpy as np
import pytest

from repro.net import LossConfig, LossModel, mathis_throughput


def test_no_loss_means_full_capacity():
    assert mathis_throughput(0.0, 0.1, cap_bytes_per_s=1e9) == 1e9


def test_mathis_bound_decreases_with_loss():
    t1 = mathis_throughput(0.005, 0.1, cap_bytes_per_s=1e12)
    t2 = mathis_throughput(0.02, 0.1, cap_bytes_per_s=1e12)
    assert t2 < t1


def test_mathis_bound_decreases_with_rtt():
    t_short = mathis_throughput(0.01, 0.01, cap_bytes_per_s=1e12)
    t_long = mathis_throughput(0.01, 0.2, cap_bytes_per_s=1e12)
    assert t_long < t_short


def test_mathis_known_value():
    # B = 1.22 * MSS / (RTT * sqrt(p))
    value = mathis_throughput(0.01, 0.1, cap_bytes_per_s=1e12)
    assert value == pytest.approx(1.22 * 1460 / (0.1 * 0.1))


def test_capacity_caps_the_bound():
    assert mathis_throughput(1e-9, 0.1, cap_bytes_per_s=5e6) == 5e6


def test_zero_loss_has_zero_retransmission_delay():
    model = LossModel(LossConfig(loss_rate=0.0), np.random.default_rng(0))
    assert all(model.retransmission_delay() == 0.0 for _ in range(100))


def test_retransmission_delay_is_multiple_of_rto():
    config = LossConfig(loss_rate=0.3, rto=0.2)
    model = LossModel(config, np.random.default_rng(0))
    for _ in range(500):
        delay = model.retransmission_delay()
        assert delay >= 0.0
        assert abs(delay / 0.2 - round(delay / 0.2)) < 1e-9


def test_mean_retransmissions_match_geometric():
    config = LossConfig(loss_rate=0.2, rto=1.0)
    model = LossModel(config, np.random.default_rng(1))
    delays = [model.retransmission_delay() for _ in range(20000)]
    # E[attempts] = 1/(1-p) => E[extra] = p/(1-p) = 0.25
    assert np.mean(delays) == pytest.approx(0.25, rel=0.1)


def test_effective_bandwidth_uses_mathis():
    config = LossConfig(loss_rate=0.01, link_capacity_bytes_per_s=1e9)
    assert config.effective_bandwidth(0.1) == pytest.approx(
        mathis_throughput(0.01, 0.1, cap_bytes_per_s=1e9)
    )
