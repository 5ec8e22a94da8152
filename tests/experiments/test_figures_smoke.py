"""Smoke tests for the exhibit rows (tiny scale, subset grids).

These don't re-assert the paper's shapes — the benchmark suite does —
they check that every figure row wires up, sweeps, and produces
well-formed tables.
"""

import math

from repro.experiments import EXHIBITS, run_exhibit, table1
from repro.experiments.common import Scale

TINY = Scale("tiny", duration=2.0, trim=0.5, repeats=1, drain=4.0)
TWO = ("Carousel Basic", "Natto-RECSF")


def _check(tables, x_count, systems=TWO):
    for table in tables.values():
        for name in systems:
            series = table.series[name]
            assert len(series) == x_count
            assert all(not math.isnan(v) for v in series)


def test_table1_matches_topology():
    measured = table1.run()
    assert len(measured) == 20  # both directions of 10 pairs


def test_figure7_ycsbt(capsys):
    tables = run_exhibit(EXHIBITS["fig7a"], TINY, systems=TWO, x_values=(50,))
    _check(tables, 1)


def test_figure7_retwis():
    tables = run_exhibit(EXHIBITS["fig7c"], TINY, systems=TWO, x_values=(100,))
    _check(tables, 1)


def test_figure7_smallbank():
    tables = run_exhibit(
        EXHIBITS["fig7e"], TINY, systems=TWO, x_values=(200,)
    )
    _check(tables, 1)


def test_figure8_sweeps_theta():
    tables = run_exhibit(EXHIBITS["fig8a"], TINY, systems=("Natto-RECSF",))
    assert len(tables["high"].series["Natto-RECSF"]) == 4


def test_figure9_percentages():
    tables = run_exhibit(
        EXHIBITS["fig9"], TINY, systems=TWO, x_values=(10, 100)
    )
    _check(tables, 2)


def test_figure10_prepends_baseline_rate():
    tables = run_exhibit(
        EXHIBITS["fig10"], TINY, systems=("Natto-RECSF",), x_values=(100, 400)
    )
    increase = tables["increase"].series["Natto-RECSF"]
    assert len(increase) == 2
    assert increase[0] == 0.0  # baseline point is its own reference


def test_figure11_variances():
    tables = run_exhibit(
        EXHIBITS["fig11"], TINY, systems=TWO, x_values=(0.0, 15.0)
    )
    _check(tables, 2)


def test_figure12_losses():
    tables = run_exhibit(
        EXHIBITS["fig12"], TINY, systems=TWO, x_values=(0.0, 1.0)
    )
    _check(tables, 2)


def test_figure13_hybrid():
    tables = run_exhibit(EXHIBITS["fig13"], TINY, systems=TWO)
    _check(tables, 1)


def test_figure14_partitions():
    tables = run_exhibit(
        EXHIBITS["fig14"], TINY, systems=("Carousel Basic",), x_values=(2,)
    )
    series = tables["throughput"].series["Carousel Basic"]
    assert len(series) == 1
    assert series[0] > 500  # committed load on 2 partitions
