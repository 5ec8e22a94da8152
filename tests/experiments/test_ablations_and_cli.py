"""Smoke tests for the ablation rows and the experiments CLI."""

import math

import pytest

from repro.experiments import EXHIBITS, run_exhibit
from repro.experiments import __main__ as cli
from repro.experiments.__main__ import main
from repro.experiments.common import Scale
from repro.harness.experiment import ExperimentSettings

TINY = Scale("tiny", duration=2.0, trim=0.5, repeats=1, drain=4.0)


def test_timestamp_margin_ablation_sweeps():
    tables = run_exhibit(EXHIBITS["abl-margin"], TINY, x_values=(0.0, 2.0))
    series = tables["high"].series["Natto-RECSF"]
    assert len(series) == 2
    assert all(not math.isnan(v) for v in series)


def test_pa_skip_rule_ablation_produces_both_variants():
    tables = run_exhibit(EXHIBITS["abl-skip-rule"], TINY)
    assert len(tables["high"].series["Natto-RECSF"]) == 2
    assert len(tables["low"].series["Natto-RECSF"]) == 2


def test_probe_cadence_ablation_sweeps():
    tables = run_exhibit(
        EXHIBITS["abl-probes"], TINY, x_values=(10.0, 500.0)
    )
    assert len(tables["high"].series["Natto-RECSF"]) == 2


def test_ablations_refuse_another_system():
    with pytest.raises(ValueError):
        run_exhibit(EXHIBITS["abl-margin"], TINY, systems=("Natto-TS",))


def test_cli_registry_covers_every_exhibit():
    assert set(EXHIBITS) == {
        "fig7a",
        "fig7c",
        "fig7e",
        "fig8a",
        "fig8b",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "abl-margin",
        "abl-skip-rule",
        "abl-probes",
    }
    assert cli.GROUPS["ablations"] == [
        "abl-margin",
        "abl-skip-rule",
        "abl-probes",
    ]
    assert cli.GROUPS["all"] == ["table1", *EXHIBITS]


def test_cli_runs_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "NSW-SG" in out


def test_cli_rejects_unknown_exhibit():
    with pytest.raises(SystemExit):
        main(["fig99"])


@pytest.mark.parametrize("exhibit", ["fig13", "table1"])
def test_cli_rejects_unknown_systems_before_running(exhibit, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "run_exhibit", lambda *a, **k: ran.append(a))
    monkeypatch.setattr(cli.table1, "run", lambda: ran.append("table1"))
    with pytest.raises(SystemExit):
        main([exhibit, "--systems", "Bogus"])
    assert ran == []


def test_cli_trace_leaves_no_global_state(tmp_path):
    assert main(["table1", "--trace", str(tmp_path)]) == 0
    settings = ExperimentSettings()
    assert settings.tracing is False
    assert settings.trace_dir is None


def test_cli_passes_trace_dir_to_every_sweep(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(
        cli, "run_exhibit", lambda row, *a, **k: calls.append(k) or {}
    )
    main(["ablations", "--trace", str(tmp_path), "--systems", "TAPIR"])
    assert [k["trace_dir"] for k in calls] == [str(tmp_path)] * 3
    assert [k["systems"] for k in calls] == [None] * 3
