"""Reproductions of every table and figure in the paper's evaluation.

Each figure and ablation is one row of the exhibit table
(:data:`~repro.experiments.exhibits.EXHIBITS`): its systems, its x-axis,
the point each (system, x) pair runs, and the tables it fills.  One
runner, :func:`~repro.experiments.common.run_exhibit`, runs any row and
returns its tables; Table 1 is a measurement, not a sweep
(:mod:`repro.experiments.table1`).  From the command line::

    python -m repro.experiments fig7a --scale quick
    python -m repro.experiments fig11 --scale full
    python -m repro.experiments all --scale bench

Scales trade fidelity for wall-clock time (the paper's runs are 60 s,
repeated 10x, which costs hours of host CPU on a simulator):

* ``quick`` — smoke test: short runs, single repetition, sparse grids.
* ``bench`` — the defaults used by ``benchmarks/``: enough to read the
  shape (who wins, by what factor, where crossovers fall).
* ``full``  — the paper's durations, repetitions, and full grids.

The mapping from exhibits to rows lives in DESIGN.md; measured-vs-
paper numbers live in EXPERIMENTS.md.
"""

from repro.experiments.common import (
    SCALES,
    Exhibit,
    Scale,
    Table,
    run_exhibit,
)
from repro.experiments.exhibits import EXHIBITS

__all__ = ["EXHIBITS", "Exhibit", "SCALES", "Scale", "Table", "run_exhibit"]
