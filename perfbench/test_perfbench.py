"""Tests of the benchmark's own code, on runs a few simulated seconds long.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import inspect
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import layers
import points
import run
import speed
import worker
from repro.sim.kernel import Simulator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Simulated length of the test runs, as a share of the benchmark's.
SCALE = 0.1
SEED = 3


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def traced():
    """Per-layer metrics of one short traced sub-run per workload."""
    return {
        name: worker.run(name, SEED, "traced", SCALE)
        for name in run.WORKLOADS
    }


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.per_layer_units()
    )
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", [False, True])
def test_a_short_run_prints_every_metric(trace):
    result = run.measure("retwis-saturated", SEED, seconds=0, trace=trace,
                         scale=SCALE)
    assert result["correct"]
    assert result["attempted"] > 0
    expected = run.per_layer_units() if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert math.isfinite(metric["value"]), name
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_each_workload_has_a_stable_digest(workload):
    plain = run.subrun(workload, SEED, "plain", 0, SCALE)
    stepped = run.subrun(workload, SEED, "stepped", 1, SCALE)
    assert plain["submitted"] > 0
    assert plain["finished"] == plain["submitted"]
    assert stepped["digest"] == plain["digest"]
    assert stepped["slices"] > 0


def test_a_livelocked_sub_run_is_reported_not_hung():
    # With the program's default clock offsets, at this seed the Natto
    # server's dispatch timer re-arms at the same simulated instant
    # forever (t = 4.000443 s); the watchdog must end the sub-run and
    # report it instead of waiting out the timeout.
    script = (
        "import sys\n"
        "sys.path[:0] = sys.argv[1:3]\n"
        "import points\n"
        "from repro.systems.base import SystemConfig\n"
        "points.CLOCK = SystemConfig().clock\n"
        "import worker\n"
        "worker.main(['ycsbt-natto', '4003', 'plain'])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, os.path.join(ROOT, "src"), run.HERE],
        env=dict(os.environ, PYTHONHASHSEED="0"), capture_output=True,
        text=True, timeout=120,
    )
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["livelock_at"] == pytest.approx(4.000443, abs=1e-6)
    assert 0 < summary["committed"] < summary["submitted"]


def test_the_benchmark_clocks_do_not_livelock_there():
    summary = run.subrun("ycsbt-natto", 4003, "plain", 0)
    assert "livelock_at" not in summary
    assert summary["committed"] == summary["submitted"]


def test_a_livelock_fails_the_run():
    done = {"seed": SEED, "mode": "stepped", "hash_seed": "1",
            "digest": "d", "submitted": 9, "finished": 9, "committed": 9}
    assert run._checks("ycsbt-natto", [done], [], done) == []
    stuck = {"seed": 4, "livelock_at": 4.0, "submitted": 9, "committed": 5}
    problems = run._checks("ycsbt-natto", [done], [stuck], done)
    assert problems == ["seed 4 livelocked"]


def test_every_client_has_the_benchmark_retry_budget():
    from repro.systems.client import ClientDriver

    original = ClientDriver.__dict__["__init__"]
    with layers.Probe("plain") as probe:
        points.run("retwis-saturated", SEED, SCALE)
    budgets = {client.max_retries for client in probe.clients.values()}
    assert budgets == {points.MAX_RETRIES}
    assert ClientDriver.__dict__["__init__"] is original


def test_a_sub_run_samples_the_host_speed_in_each_phase():
    summary = run.subrun("retwis-saturated", SEED, "plain", 0, SCALE)
    speed = summary["speed"]
    assert set(speed) == {"import", "build", "setup", "run"}
    assert speed["run"]["samples"] > 0
    assert 0 < speed["run"]["sampled_ns"] < summary["run_ns"]
    assert speed["setup"]["samples"] == (
        speed["import"]["samples"] + speed["build"]["samples"]
    )
    assert 0 < run._wall_s(summary) and 0 < run._setup_s(summary)


def test_a_phase_at_reference_speed_leaves_out_its_samples():
    summary = {"speed": {"run": {"sampled_ns": 10**8, "speed": 2.0}}}
    assert run._at_reference_s(summary, "run", 10**9) == pytest.approx(1.8)


def test_speed_phases_split_the_samples_by_time():
    sampler = speed.SpeedSampler()
    built_at, built_ns = sampler.built
    reference = speed.REFERENCE_NS
    sampler.samples = [
        (built_at + 10, reference), (built_at + 20, reference // 2),
    ]
    first = sampler.phase(None, built_at + 10)
    assert first == {"samples": 1, "sampled_ns": built_ns + reference,
                     "speed": 1.0}
    second = sampler.phase(built_at + 10, built_at + 20)
    assert second == {"samples": 1, "sampled_ns": reference // 2,
                      "speed": 2.0}
    assert sampler.calibrate() > 0


def test_traced_run_matches_the_plain_run(traced):
    plain = worker.run("ycsbt-natto", SEED, "plain", SCALE)
    assert traced["ycsbt-natto"]["digest"] == plain["digest"]


def _wrapped_attributes():
    """(class, name) of every class attribute that is a benchmark wrapper."""
    return [
        (cls, name)
        for package in layers.LAYERS
        for cls in layers._classes_of(package)
        for name, value in vars(cls).items()
        if inspect.isfunction(value) and value.__module__ == layers.__name__
    ]


def test_every_wrapper_is_restored(traced):
    assert _wrapped_attributes() == []
    with layers.Probe("traced") as probe:
        replaced = probe.replaced
        assert len(replaced) > 30
        assert len(_wrapped_attributes()) == len(replaced)
    for cls, name, original in replaced:
        assert cls.__dict__[name] is original, (cls, name)
    assert _wrapped_attributes() == []


def test_wrappers_are_restored_when_the_run_fails():
    original_run = Simulator.__dict__["run"]
    with pytest.raises(RuntimeError):
        with layers.Probe("traced"):
            raise RuntimeError("run failed")
    assert Simulator.__dict__["run"] is original_run
    assert _wrapped_attributes() == []


def test_self_times_add_up_to_the_traced_wall_time(traced):
    for summary in traced.values():
        metrics = summary["layers"]
        total = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
        total += metrics["unattributed_s"]
        assert total == pytest.approx(summary["total_ns"] / 1e9, abs=1e-6)
        assert metrics["unattributed_s"] >= 0


def test_raft_backlog_is_deepest_on_the_saturated_workload(traced):
    peaks = {
        name: summary["layers"]["raft.pending_commits_peak"]
        for name, summary in traced.items()
    }
    assert peaks["retwis-saturated"] == max(peaks.values())
    assert peaks["retwis-saturated"] > peaks["ycsbt-natto"]


def test_contention_costs_retries_only_on_ycsbt(traced):
    attempts = {
        name: summary["layers"]["txn.attempts_per_commit"]
        for name, summary in traced.items()
    }
    assert attempts["ycsbt-natto"] > attempts["retwis-saturated"]
    assert attempts["retwis-saturated"] == pytest.approx(1.0, abs=0.05)


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ycsbt-natto",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
