"""Parallel sweep executor: determinism, pickling, seed schedule, traces.

The load-bearing guarantee is that a sweep run at ``--jobs N`` is
byte-identical to the serial run — same tables, same per-point metrics —
so every figure can fan out over cores without changing a single number.
"""

import gc
import math
import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments import EXHIBITS, run_exhibit
from repro.experiments.common import Scale, trace_label
from repro.harness import parallel as parallel_module
from repro.harness.experiment import (
    ExperimentSettings,
    seed_schedule,
    slugify,
)
from repro.harness.parallel import (
    PointSpec,
    WorkloadSpec,
    default_jobs,
    run_point,
    run_points,
)
from repro.workloads import YcsbTWorkload

from tests.helpers import collector, live_simulators

TINY = Scale("tiny", duration=2.0, trim=0.5, repeats=1, drain=4.0)


def _tiny_spec(system="Natto-RECSF", seed=0, **settings_kwargs):
    settings = TINY.apply(ExperimentSettings(**settings_kwargs)).scaled(
        seed=seed
    )
    return PointSpec(
        system=system,
        x=50,
        input_rate=50.0,
        workload=WorkloadSpec.of(YcsbTWorkload),
        settings=settings,
        repeats=TINY.repeats,
    )


# ---------------------------------------------------------------------------
# seed schedule


def test_seed_schedule_matches_historical_derivation():
    # Existing figures used seed*1000 + rep for small repeat counts; the
    # schedule must reproduce those seeds exactly or every published
    # number shifts.
    assert list(seed_schedule(0, 3)) == [0, 1, 2]
    assert list(seed_schedule(7, 4)) == [7000, 7001, 7002, 7003]


def test_seed_schedule_is_injective_across_bases():
    seen = {}
    for base in range(50):
        for rep, seed in enumerate(seed_schedule(base, 40)):
            assert seed not in seen, (
                f"collision: base={base} rep={rep} vs {seen[seed]}"
            )
            seen[seed] = (base, rep)


def test_seed_schedule_injective_for_large_repeat_counts():
    # repeats > 1000 would have collided under the old stride-1000 rule.
    a = set(seed_schedule(1, 1500))
    b = set(seed_schedule(2, 1500))
    assert len(a) == 1500 and len(b) == 1500
    assert not (a & b)


# ---------------------------------------------------------------------------
# picklability and detach


def test_point_spec_and_workload_spec_pickle():
    spec = _tiny_spec()
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    workload = clone.workload.factory()(__import__("numpy").random.default_rng(0))
    assert workload is not None


def test_detached_result_pickles_and_preserves_metrics():
    repeated = run_point(_tiny_spec())
    clone = pickle.loads(pickle.dumps(repeated))
    assert clone.system_name == repeated.system_name
    assert clone.p95_high_ms() == repeated.p95_high_ms()
    assert clone.p95_low_ms() == repeated.p95_low_ms()
    assert clone.goodput() == repeated.goodput()
    # detach() dropped the live system and tracer.
    for result in repeated.results:
        assert result.system is None
        assert result.tracer is None


def test_run_point_frees_its_deployment():
    # A deployment is a reference cycle through its Simulator.  With
    # the collector off, only run_point's own collection can free it.
    with collector(enabled=False):
        gc.collect()
        before = live_simulators()
        run_point(_tiny_spec())
        assert live_simulators() == before


# ---------------------------------------------------------------------------
# serial/parallel parity


@pytest.fixture
def pools_entered(monkeypatch):
    """Grant two usable cores (so a one-core host does not fall back to
    the serial path) and record the size of each process pool entered."""
    entered = []

    class SpyPool(ProcessPoolExecutor):
        def __enter__(self):
            entered.append(self._max_workers)
            return super().__enter__()

    monkeypatch.setattr(parallel_module, "usable_cpus", lambda: 2)
    monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", SpyPool)
    return entered


def test_run_points_serial_and_parallel_agree(pools_entered):
    specs = [
        _tiny_spec(system=name, seed=seed)
        for name in ("Carousel Basic", "Natto-RECSF")
        for seed in (0, 1)
    ]
    serial = run_points(specs, jobs=1)
    assert pools_entered == []
    parallel = run_points(specs, jobs=4)
    assert pools_entered == [2]
    assert len(serial) == len(parallel) == len(specs)
    for left, right in zip(serial, parallel):
        assert left.system_name == right.system_name
        assert left.p95_high_ms() == right.p95_high_ms()
        assert left.p95_low_ms() == right.p95_low_ms()
        assert left.goodput() == right.goodput()


def test_figure_sweep_tables_identical_at_any_job_count(pools_entered):
    kwargs = dict(
        systems=("Carousel Basic", "Natto-RECSF"), x_values=(50, 100)
    )
    serial = run_exhibit(EXHIBITS["fig7a"], TINY, jobs=1, **kwargs)
    assert pools_entered == []
    parallel = run_exhibit(EXHIBITS["fig7a"], TINY, jobs=4, **kwargs)
    assert pools_entered == [2]
    assert serial.keys() == parallel.keys()
    for key in serial:
        assert serial[key].to_json() == parallel[key].to_json()


def test_default_jobs_is_positive():
    assert default_jobs() >= 1


# ---------------------------------------------------------------------------
# trace export under parallel workers


def test_trace_labels_unique_per_point():
    labels = {
        trace_label("fig7-ycsbt", system, x)
        for system in ("Natto-RECSF", "Carousel Basic", "2PL+2PC(P)")
        for x in (50, 150, 250)
    }
    assert len(labels) == 9
    assert trace_label(None, "Natto-RECSF", 50) is None


def test_parallel_trace_export_writes_one_file_per_point(tmp_path):
    trace_dir = str(tmp_path / "traces")
    specs = []
    for system in ("Carousel Basic", "Natto-RECSF"):
        settings = TINY.apply(
            ExperimentSettings(
                tracing=True,
                trace_dir=trace_dir,
                trace_label=trace_label("par", system, 50),
            )
        ).scaled(seed=3)
        specs.append(
            PointSpec(
                system=system,
                x=50,
                input_rate=50.0,
                workload=WorkloadSpec.of(YcsbTWorkload),
                settings=settings,
                repeats=1,
            )
        )
    run_points(specs, jobs=2)
    names = sorted(os.listdir(trace_dir))
    assert names == [
        "par-carousel-basic-x50-seed3000.trace.jsonl",
        "par-natto-recsf-x50-seed3000.trace.jsonl",
    ]


def test_slugify_flattens_labels():
    assert slugify("2PL+2PC(POW)") == "2pl-2pc-pow"
    assert slugify(0.65) == "0.65"
