"""The exhibit runner: trace names, progress lines, derived tables."""

import os
from dataclasses import replace
from functools import partial

from repro.experiments import EXHIBITS, Exhibit, Table, common, run_exhibit
from repro.experiments.common import Scale
from repro.experiments.exhibits import fig14_point
from repro.harness.experiment import RepeatedResult
from repro.harness import parallel
from repro.harness.parallel import PointSpec, WorkloadSpec
from repro.workloads import YcsbTWorkload

from tests.verify.test_fingerprint_pinned import (
    FINGERPRINT_KEYS,
    FINGERPRINT_RATE,
    FINGERPRINT_SCALE,
)

TINY = Scale("tiny", duration=2.0, trim=0.5, repeats=1, drain=4.0)


def test_traced_sweep_writes_one_file_per_point(tmp_path):
    trace_dir = str(tmp_path / "traces")
    run_exhibit(
        EXHIBITS["fig7a"],
        TINY,
        systems=("Carousel Basic", "Natto-RECSF"),
        x_values=(50,),
        seed=3,
        jobs=1,
        trace_dir=trace_dir,
    )
    assert sorted(os.listdir(trace_dir)) == [
        "fig7-ycsbt-carousel-basic-x50-seed3000.trace.jsonl",
        "fig7-ycsbt-natto-recsf-x50-seed3000.trace.jsonl",
    ]


def test_every_point_gets_the_scale_seed_and_trace_settings(monkeypatch):
    specs = []

    def run_points(batch, jobs=None, progress=None):
        specs.extend(batch)
        return [RepeatedResult(s.system, s.input_rate, []) for s in batch]

    monkeypatch.setattr(common, "run_points", run_points)
    row = EXHIBITS["fig9"]
    run_exhibit(row, TINY, systems=("TAPIR",), x_values=(10, 40), seed=2)
    run_exhibit(
        row, TINY, systems=("TAPIR",), x_values=(10,), trace_dir="d"
    )
    assert [(s.system, s.x, s.repeats) for s in specs] == [
        ("TAPIR", 10, 1), ("TAPIR", 40, 1), ("TAPIR", 10, 1),
    ]
    for spec in specs:
        settings = spec.settings
        assert settings == TINY.apply(settings)
        assert settings.trace_label == f"fig9-tapir-x{spec.x}"
    assert [s.settings.seed for s in specs] == [2, 2, 0]
    assert [s.settings.trace_dir for s in specs] == [None, None, "d"]
    assert [s.settings.tracing for s in specs] == [False, False, True]


def test_progress_reports_unfinished_transactions(capsys):
    # The pinned fingerprint point stops its drain while most of
    # 2PL+2PC's transactions are still in flight.
    row = Exhibit(
        "fp",
        "fp",
        "Fingerprint point",
        "input rate (txn/s)",
        (FINGERPRINT_RATE,),
        ("2PL+2PC",),
        lambda system, rate: PointSpec(
            system,
            rate,
            float(rate),
            WorkloadSpec.of(YcsbTWorkload, num_keys=FINGERPRINT_KEYS),
        ),
        (Table("high", "95P latency", RepeatedResult.p95_high_ms),),
    )
    run_exhibit(row, FINGERPRINT_SCALE, jobs=1)
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("[2PL+2PC @ 80] high=")
    assert lines[-1].endswith(" unfinished=138")


def test_progress_line_is_printed_before_the_next_point_runs(
    monkeypatch, capsys
):
    printed_before = []

    def run_point(spec):
        printed_before.append(capsys.readouterr().out)
        return RepeatedResult(spec.system, spec.input_rate, [])

    monkeypatch.setattr(parallel, "run_point", run_point)
    run_exhibit(
        EXHIBITS["fig9"], TINY, systems=("TAPIR",), x_values=(10, 40), jobs=1
    )
    assert printed_before[0] == ""
    assert printed_before[1].startswith("[TAPIR @ 10] ")
    assert capsys.readouterr().out.startswith("[TAPIR @ 40] ")


def test_baseline_table_starts_every_sweep_at_its_baseline():
    tables = run_exhibit(
        EXHIBITS["fig10"], TINY, systems=("Natto-RECSF",), x_values=(400,)
    )
    assert tables["increase"].x_values == (100, 400)
    high = tables["high"].series["Natto-RECSF"]
    increase = tables["increase"].series["Natto-RECSF"]
    assert increase == [0.0, 100.0 * (high[1] - high[0]) / high[0]]
    assert tables["increase"].errors == {}


def test_fig14_point_takes_a_cheaper_load():
    row = replace(
        EXHIBITS["fig14"],
        point=partial(fig14_point, offered_per_partition=1500),
    )
    spec = row.point("Carousel Basic", 4)
    assert spec.input_rate == 6000.0
    assert spec.settings.system_config.num_partitions == 4
