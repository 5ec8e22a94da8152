"""Scales, the exhibit row, and the one runner every exhibit goes through.

An exhibit sweeps systems × one x-axis.  Its :class:`Exhibit` row says
what each (system, x) point runs and which tables the results fill;
:func:`run_exhibit` builds the points as
:class:`~repro.harness.parallel.PointSpec` objects, applies the scale,
seed and trace settings, and hands them to
:func:`~repro.harness.parallel.run_points`, which fans them over worker
processes (``jobs`` workers, default all cores) or runs them in-process
(``jobs=1``).  Results come back in spec order, so the tables are
byte-identical however many workers ran the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.harness.experiment import (
    ExperimentSettings,
    RepeatedResult,
    slugify,
)
from repro.harness.parallel import PointSpec, run_points
from repro.harness.report import SeriesTable


@dataclass(frozen=True)
class Scale:
    """How long and how often to run each point."""

    name: str
    duration: float
    trim: float
    repeats: int
    drain: float

    def apply(self, settings: ExperimentSettings) -> ExperimentSettings:
        return settings.scaled(
            duration=self.duration, trim=self.trim, drain=self.drain
        )


SCALES: Dict[str, Scale] = {
    "quick": Scale("quick", duration=4.0, trim=1.0, repeats=1, drain=6.0),
    "bench": Scale("bench", duration=6.0, trim=1.5, repeats=1, drain=10.0),
    "full": Scale("full", duration=60.0, trim=10.0, repeats=10, drain=30.0),
}


def resolve_scale(scale) -> Scale:
    if isinstance(scale, Scale):
        return scale
    return SCALES[scale]


def trace_label(tag: Optional[str], system_name: str, x) -> Optional[str]:
    """Trace-export stem for one sweep point.

    Derived from (exhibit tag, system, x-value); the harness appends the
    run's seed.  Unique per point by construction — no shared counter,
    so parallel workers can't collide.
    """
    if tag is None:
        return None
    return f"{slugify(tag)}-{slugify(system_name)}-x{slugify(x)}"


@dataclass(frozen=True)
class Table:
    """One table an exhibit fills, titled ``"<exhibit title> — <title>"``.

    ``extract`` maps a point's result to ``(value, error)``.  With a
    ``baseline`` x-value the table reports each point's increase (%)
    over the same series at the baseline, and every sweep starts there.
    """

    key: str
    title: str
    extract: Callable[[RepeatedResult], tuple]
    unit: str = "ms"
    baseline: Any = None


@dataclass(frozen=True)
class Exhibit:
    """One row of the exhibit table: a sweep of systems × one x-axis.

    ``point(system, x)`` gives the point's system, rate, workload and
    settings; :func:`run_exhibit` applies the scale, the seed and the
    trace settings on top.
    """

    name: str
    tag: str
    title: str
    x_label: str
    x_values: tuple
    systems: tuple
    point: Callable[[str, Any], PointSpec]
    tables: Tuple[Table, ...]


def run_exhibit(
    row: Exhibit,
    scale,
    systems: Optional[Sequence[str]] = None,
    x_values: Optional[Sequence] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
    trace_dir: Optional[str] = None,
) -> Dict[str, SeriesTable]:
    """Run ``row`` and return its tables by key.

    ``systems`` and ``x_values`` default to the row's.  With a
    ``trace_dir`` every run is traced and exported there.  Tables fill
    in (system, x) order as the points finish, and each point prints one
    progress line then, with its values and the transactions its runs
    left unfinished.
    """
    scale = resolve_scale(scale)
    systems = tuple(systems or row.systems)
    x_values = tuple(x_values or row.x_values)
    for table in row.tables:
        if table.baseline is not None and x_values[0] != table.baseline:
            x_values = (table.baseline,) + x_values
    tables = {
        table.key: SeriesTable(
            f"{row.title} — {table.title}", row.x_label, x_values, table.unit
        )
        for table in row.tables
    }
    points = [(system, x) for system in systems for x in x_values]
    specs = []
    for system, x in points:
        spec = row.point(system, x)
        settings = scale.apply(spec.settings).scaled(
            seed=seed,
            trace_label=trace_label(row.tag, system, x),
            tracing=trace_dir is not None,
            trace_dir=trace_dir,
        )
        specs.append(replace(spec, settings=settings, repeats=scale.repeats))

    def report(index: int, result: RepeatedResult) -> None:
        system, x = points[index]
        cells = []
        for table in row.tables:
            value, error = table.extract(result)
            tables[table.key].add_point(system, value, error)
            if table.baseline is None:
                cells.append(f"{table.key}={value:.1f}")
        unfinished = sum(run.unfinished for run in result.results)
        print(
            f"[{system} @ {x}] {' '.join(cells)} unfinished={unfinished}",
            flush=True,
        )

    run_points(specs, jobs=jobs, progress=report)
    for table in row.tables:
        if table.baseline is not None:
            filled = tables[table.key]
            filled.errors.clear()
            for values in filled.series.values():
                base = values[0]
                values[:] = [100.0 * (v - base) / base for v in values]
    return tables
