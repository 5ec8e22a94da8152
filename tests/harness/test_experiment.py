"""Tests for the experiment harness."""

import gc
import math

import pytest

from repro.faults import FaultInjector, FaultSchedule, server_crash
from repro.harness import (
    ExperimentSettings,
    PointSpec,
    WorkloadSpec,
    deploy,
    make_system,
    run_experiment,
    run_point,
    run_until_settled,
)
from repro.harness.experiment import SETTLE_S, STEP_S
from repro.harness.systems import SYSTEM_FACTORIES
from repro.net.topology import azure_topology
from repro.systems.base import SystemConfig
from repro.txn.priority import Priority
from repro.verify import fingerprint_records
from repro.workloads import YcsbTWorkload

from tests.helpers import collector, rmw_spec
from tests.verify.test_fingerprint_pinned import (
    FINGERPRINT_KEYS,
    FINGERPRINT_RATE,
    FINGERPRINT_SCALE,
)

FAST = ExperimentSettings(duration=3.0, trim=0.5, drain=5.0)


def test_registry_covers_all_paper_lines():
    assert set(SYSTEM_FACTORIES) == {
        "2PL+2PC",
        "2PL+2PC(P)",
        "2PL+2PC(POW)",
        "TAPIR",
        "Carousel Basic",
        "Carousel Fast",
        "Natto-TS",
        "Natto-LECSF",
        "Natto-PA",
        "Natto-CP",
        "Natto-RECSF",
    }


def test_unknown_system_rejected():
    with pytest.raises(KeyError):
        make_system("FoundationDB")


def test_run_experiment_produces_metrics():
    result = run_experiment(
        lambda: make_system("Carousel Basic"),
        lambda rng: YcsbTWorkload(rng, num_keys=200_000),
        60,
        FAST,
    )
    assert result.system_name == "Carousel Basic"
    assert result.committed_per_second > 30
    assert 0.2 < result.p95_high_ms / 1000.0 < 3.0
    assert 0.2 < result.p95_low_ms / 1000.0 < 3.0
    assert result.system is not None


def test_input_rate_is_respected():
    result = run_experiment(
        lambda: make_system("Carousel Basic"),
        lambda rng: YcsbTWorkload(rng, num_keys=100_000),
        100,
        FAST,
    )
    # Open-loop arrivals at 100/s; goodput close to it at low contention.
    assert 70 < result.committed_per_second < 130


def test_window_trims_warmup_and_cooldown():
    result = run_experiment(
        lambda: make_system("Carousel Basic"),
        lambda rng: YcsbTWorkload(rng, num_keys=10_000),
        50,
        FAST,
    )
    start, end = result.window
    assert start == FAST.probe_warmup + FAST.trim
    assert end == FAST.probe_warmup + FAST.duration - FAST.trim
    for record in result.stats.committed(window=result.window):
        assert start <= record.start < end


def test_same_seed_reproduces_exactly():
    def run():
        return run_experiment(
            lambda: make_system("Carousel Basic"),
            lambda rng: YcsbTWorkload(rng, num_keys=10_000),
            50,
            FAST.scaled(seed=42),
        )

    a, b = run(), run()
    assert [r.txn_id for r in a.stats.records] == [
        r.txn_id for r in b.stats.records
    ]
    assert a.p95_low_ms == b.p95_low_ms


def test_different_seeds_differ():
    def run(seed):
        return run_experiment(
            lambda: make_system("Carousel Basic"),
            lambda rng: YcsbTWorkload(rng, num_keys=10_000),
            50,
            FAST.scaled(seed=seed),
        )

    assert run(1).p95_low_ms != run(2).p95_low_ms


def test_run_repeated_aggregates_with_ci():
    repeated = run_point(
        PointSpec(
            "Carousel Basic",
            50,
            50,
            WorkloadSpec.of(YcsbTWorkload, num_keys=10_000),
            FAST,
            repeats=2,
        )
    )
    mean, half = repeated.p95_low_ms()
    assert mean > 0
    assert half >= 0
    assert not math.isnan(mean)


def test_priority_split_in_goodput():
    result = run_experiment(
        lambda: make_system("Carousel Basic"),
        lambda rng: YcsbTWorkload(rng, num_keys=100_000),
        100,
        FAST,
    )
    high = result.goodput(Priority.HIGH)
    low = result.goodput(Priority.LOW)
    assert high < low  # 10/90 split
    assert high + low == pytest.approx(result.goodput(), rel=1e-6)


def test_unfinished_counts_what_the_drain_cap_cut_off():
    # The pinned fingerprint point stops its drain while most
    # transactions are still in flight.
    result = run_experiment(
        lambda: make_system("2PL+2PC"),
        lambda rng: YcsbTWorkload(rng, num_keys=FINGERPRINT_KEYS),
        FINGERPRINT_RATE,
        FINGERPRINT_SCALE.apply(ExperimentSettings()).scaled(seed=0),
    )
    assert result.unfinished > 0
    assert result.detach().unfinished == result.unfinished


def test_a_run_that_finishes_leaves_nothing_unfinished():
    result = run_experiment(
        lambda: make_system("Carousel Basic"),
        lambda rng: YcsbTWorkload(rng, num_keys=100_000),
        20,
        FAST,
    )
    assert result.stats.records
    assert result.unfinished == 0


def _burst(submit_times=(0.0, 0.0, 0.0), cap=30.0, schedule=None):
    """A Carousel Basic deployment with one client in VA that submits
    one transaction at each of ``submit_times``."""
    cluster, clients, stats = deploy(
        make_system("Carousel Basic"),
        azure_topology(),
        SystemConfig(),
        0,
        [("client-VA-0", "VA")],
    )
    if schedule is not None:
        FaultInjector(cluster.sim, cluster.network, schedule).attach()
    for i, at in enumerate(submit_times):
        spec = rmw_spec(f"t{i}", ["hot"])
        cluster.sim.schedule(at, lambda spec=spec: clients[0].submit(spec))
    return cluster.sim, clients, stats


def test_a_run_stops_one_settle_window_after_its_last_record():
    sim, clients, stats = _burst()
    assert run_until_settled(sim, clients, after=0.0, cap=30.0)
    last = max(record.end for record in stats.records)
    assert last + SETTLE_S <= sim.now <= last + SETTLE_S + STEP_S
    assert len(stats.records) == 3

    sim, _, straight = _burst()
    sim.run(until=30.0)
    assert fingerprint_records(stats.records) == fingerprint_records(
        straight.records
    )


def test_an_idle_gap_before_after_does_not_end_the_run():
    sim, clients, stats = _burst(submit_times=(0.0, 10.0))
    assert run_until_settled(sim, clients, after=10.0, cap=60.0)
    assert [record.txn_id for record in stats.records] == ["t0", "t1"]
    assert stats.records[0].end < 10.0
    assert sim.now >= stats.records[1].end + SETTLE_S


def test_a_transaction_that_cannot_finish_runs_to_the_cap():
    sim, clients, stats = _burst(
        submit_times=(0.0,),
        schedule=FaultSchedule((server_crash(0.0, 100.0, "client-VA-0"),)),
    )
    assert not run_until_settled(sim, clients, after=0.0, cap=20.0)
    assert sim.now == 20.0
    assert stats.records == []
    assert clients[0].inflight == 1


def _cyclic_garbage_of_a_run(load_s):
    """Objects of cyclic garbage one Natto-RECSF YCSB+T run leaves,
    counted while its result still holds the deployment; and its
    finished transactions."""
    gc.collect()
    result = run_experiment(
        lambda: make_system("Natto-RECSF"),
        lambda rng: YcsbTWorkload(rng, num_keys=100_000),
        60,
        ExperimentSettings(
            clients_per_dc=1, duration=load_s, trim=0.0, drain=5.0
        ),
    )
    return gc.collect(), len(result.stats.records)


def test_cyclic_garbage_does_not_grow_with_the_run():
    # Simulator.run pauses the cyclic collector, so a cycle made per
    # message or per transaction would hold its memory until run
    # returns.  Measured: both runs leave exactly 84 objects, a
    # 16-object cycle per client (the open-loop tick closure refers to
    # itself) and the 4-object workload only those closures held, while
    # the longer run finishes 182 transactions to the shorter one's 53.
    # A cycle per transaction adds at least one object for each of those
    # 129 more, so a slack of one closure's 16 objects still catches it,
    # and a cycle per message far sooner.
    with collector(enabled=False):
        short, short_records = _cyclic_garbage_of_a_run(1.0)
        long, long_records = _cyclic_garbage_of_a_run(3.0)
    assert long_records > short_records
    assert long <= short + 16
