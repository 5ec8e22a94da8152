"""Tests for delay models."""

import numpy as np
import pytest

from repro.net import ConstantDelay, ParetoDelay, azure_topology
from repro.net.delay import make_delay_model, pareto_shape_for_cv


def test_constant_delay_equals_topology_base():
    topo = azure_topology()
    model = ConstantDelay(topo)
    assert model.sample("VA", "SG") == topo.one_way("VA", "SG")


def test_pareto_shape_inverts_cv():
    for cv in (0.05, 0.15, 0.4):
        alpha = pareto_shape_for_cv(cv)
        # CV^2 = 1 / (alpha (alpha - 2))
        assert (1.0 / (alpha * (alpha - 2.0))) == pytest.approx(cv * cv)


def test_pareto_delay_matches_requested_mean_and_cv():
    topo = azure_topology()
    model = ParetoDelay(topo, np.random.default_rng(1), cv=0.2)
    base = topo.one_way("VA", "SG")
    samples = np.array([model.sample("VA", "SG") for _ in range(40000)])
    assert samples.mean() == pytest.approx(base, rel=0.03)
    assert samples.std() / samples.mean() == pytest.approx(0.2, rel=0.15)


def test_pareto_delay_never_below_scale():
    topo = azure_topology()
    model = ParetoDelay(topo, np.random.default_rng(2), cv=0.4)
    base = topo.one_way("VA", "WA")
    for _ in range(1000):
        assert model.sample("VA", "WA") > base * 0.3


def test_make_delay_model_zero_variance_is_constant():
    model = make_delay_model(azure_topology(), np.random.default_rng(0), 0.0)
    assert isinstance(model, ConstantDelay)


def test_make_delay_model_positive_variance_is_pareto():
    model = make_delay_model(azure_topology(), np.random.default_rng(0), 0.15)
    assert isinstance(model, ParetoDelay)


def test_invalid_cv_rejected():
    with pytest.raises(ValueError):
        pareto_shape_for_cv(0.0)
