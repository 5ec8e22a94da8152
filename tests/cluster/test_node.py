"""Tests for the node service-time model."""

import pytest

from repro.cluster import Node, ServiceModel
from repro.sim import Simulator


def test_zero_cost_tasks_have_no_delay():
    sim = Simulator()
    model = ServiceModel(sim, service_time=0.0)
    assert model.admission_delay(0.0) == 0.0


def test_single_task_costs_its_service_time():
    sim = Simulator()
    model = ServiceModel(sim)
    assert model.admission_delay(0.002) == 0.002


def test_back_to_back_tasks_queue_fifo():
    sim = Simulator()
    model = ServiceModel(sim)
    assert model.admission_delay(0.001) == 0.001
    assert model.admission_delay(0.001) == 0.002
    assert model.admission_delay(0.001) == 0.003


def test_idle_gap_resets_queue():
    sim = Simulator()
    model = ServiceModel(sim)
    model.admission_delay(0.001)
    sim.schedule(1.0, sim.stop)
    sim.run()
    # Long idle period: queue drained, next task only pays its own cost.
    assert model.admission_delay(0.001) == pytest.approx(0.001)


def test_node_defaults_to_perfect_clock_and_free_cpu():
    sim = Simulator()
    node = Node(sim, "n1", "DC1")
    assert node.clock.now() == 0.0
    assert node.service.service_time == 0.0


def test_node_repr_mentions_name_and_dc():
    sim = Simulator()
    node = Node(sim, "leader-0", "VA")
    assert "leader-0" in repr(node)
    assert "VA" in repr(node)
