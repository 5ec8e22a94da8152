"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run is a sequence of sub-runs, each in a fresh process
(``worker.py``), one at a time.  Sub-run ``i`` simulates the workload at
seed ``N * 1000 + i`` under ``PYTHONHASHSEED=0``.

``--trace 0`` runs plain sub-runs until ``S`` seconds are used up, and at
least as many as the workload pools (:data:`POOLED`).  The wall-clock
metrics are medians over the sub-runs, each time taken at reference
speed (``speed.py``): its wall time, less the host-speed samples taken
in it, times the host's mean speed over those samples.  The simulated
metrics pool the transactions of the first ``POOLED`` sub-runs, so they
depend only on the seed.  A last sub-run repeats sub-run 0 stepped in
50 ms slices under ``PYTHONHASHSEED=1``; its transaction-record digest
must equal sub-run 0's.

``--trace 1`` runs at least two plain sub-runs, then sub-run 0 again,
traced (and stepped) under ``PYTHONHASHSEED=1``, and prints the
per-layer metrics of the traced sub-run.  Its digest must equal sub-run
0's.

Every line before the last describes the sub-runs and the metrics; the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when the run is correct,
1 when a check failed and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("ycsbt-natto", "retwis-saturated")

#: Sub-runs whose transactions the simulated metrics pool, per workload.
#: The tail latency of ``ycsbt-natto`` varies more from seed to seed.
POOLED = {"ycsbt-natto": 5, "retwis-saturated": 3}

#: A run whose transactions fail (retry budget exhausted, or unfinished
#: at the end of the drain) more often than this is not at the intended
#: operating point, and is reported as incorrect.
MAX_FAILED_SHARE = 0.02

SUBRUN_TIMEOUT_S = 170

#: name -> unit of every end-to-end metric, in print order.  ``sim_ms``
#: is simulated time; every other time is wall-clock time.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "committed_per_wall_s": "1/s",
    "peak_rss_mb": "MB",
    "txn_committed_share": "ratio",
    "sim_p95_high_ms": "sim_ms",
    "sim_p95_low_ms": "sim_ms",
    "sim_goodput_txn_s": "txn/s",
}


def per_layer_units() -> Dict[str, str]:
    """name -> unit of every per-layer metric, in print order."""
    from layers import LAYERS, MESSAGE_METHODS
    from repro.obs.abort import AbortReason

    units = {
        "sim.events_per_commit": "count",
        "sim.ns_per_event": "ns",
        "sim.heap_peak": "count",
        "sim.cancelled_share": "ratio",
        "sim.slice_wall_ms_p50": "ms",
        "sim.slice_wall_ms_p95": "ms",
        "net.messages_per_commit": "count",
        "net.bytes_per_commit": "B",
        "net.ns_per_send": "ns",
    }
    for method in MESSAGE_METHODS:
        units[f"net.msgs.{method}_per_commit"] = "count"
    units.update({
        "net.probe_share": "ratio",
        "raft.proposals_per_commit": "count",
        "raft.ns_per_append_entries": "ns",
        "raft.ns_per_append_response": "ns",
        "raft.commit_wait_ms_p50": "sim_ms",
        "raft.commit_wait_ms_p95": "sim_ms",
        "raft.pending_commits_peak": "count",
        "cluster.cpu_wait_ms_p50": "sim_ms",
        "cluster.cpu_wait_ms_p95": "sim_ms",
        "cluster.cpu_queued_share": "ratio",
        "core.handler_calls_per_commit": "count",
        "core.ns_per_handler_call": "ns",
        "systems.handler_calls_per_commit": "count",
        "systems.ns_per_handler_call": "ns",
        "systems.inflight_peak": "count",
        "store.conflict_checks_per_commit": "count",
        "store.ns_per_conflict_check": "ns",
        "txn.attempts_per_commit": "count",
    })
    for reason in AbortReason:
        units[f"txn.aborts_per_commit.{reason.value}"] = "count"
    units.update({
        "txn.ns_per_record_add": "ns",
        "txn.failed_share": "ratio",
        "workloads.ns_per_txn": "ns",
        "harness.import_s": "s",
        "harness.build_s": "s",
    })
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "unattributed_s": "s",
        "traced_wall_s": "s",
        "trace_overhead": "ratio",
    })
    return units


class SubRunError(RuntimeError):
    """A sub-run exited abnormally or printed no result."""


def sub_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def subrun(
    workload: str, seed: int, mode: str, hash_seed: int, scale: float = 1.0
) -> dict:
    """Run ``worker.py`` once and return its summary.

    Adds ``spawned_ns`` (the parent's ``time.monotonic_ns()`` just before
    the process started) and ``elapsed_s`` (its whole lifetime).
    """
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    command = [sys.executable, WORKER, workload, str(seed), mode, repr(scale)]
    spawned = time.monotonic_ns()
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=SUBRUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise SubRunError(f"{' '.join(command)} timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SubRunError(
            f"{' '.join(command)} exited with {done.returncode}:\n"
            + done.stderr[-2000:]
        )
    summary = json.loads(lines[-1])
    summary["spawned_ns"] = spawned
    summary["elapsed_s"] = (time.monotonic_ns() - spawned) / 1e9
    return summary


def _describe(run: dict) -> str:
    head = f"seed {run['seed']} {run['mode']}"
    failed = run["submitted"] - run["committed"]
    if "livelock_at" in run:
        return (
            f"{head}: LIVELOCK, simulated time stopped advancing at "
            f"{run['livelock_at']!r} s; {run['submitted']} submitted, "
            f"{failed} failed"
        )
    unfinished = run["submitted"] - run["finished"]
    speed = run["speed"]
    at_reference = (
        f" (at reference speed {_wall_s(run):.3f} s and "
        f"{_setup_s(run):.3f} s; host speed {speed['run']['speed']:.3f} "
        f"and {speed['setup']['speed']:.3f})" if speed else ""
    )
    return (
        f"{head} PYTHONHASHSEED={run['hash_seed']}: "
        f"run {run['run_ns'] / 1e9:.3f} s, "
        f"setup {(run['run_entered_ns'] - run['spawned_ns']) / 1e9:.3f} s"
        f"{at_reference}, "
        f"{run['submitted']} submitted, {failed} failed "
        f"({unfinished} unfinished), digest {run['digest'][:16]}"
    )


def _checks(
    workload: str, runs: List[dict], stuck: List[dict], repeat: dict
) -> List[str]:
    """Problems with a set of sub-runs; empty when all is well."""
    problems = []
    for run in stuck:
        problems.append(f"seed {run['seed']} livelocked")
    if repeat["digest"] != runs[0]["digest"]:
        problems.append(
            f"{repeat['mode']} repeat of seed {repeat['seed']} under "
            f"PYTHONHASHSEED={repeat['hash_seed']} changed the "
            f"transaction-record digest"
        )
    for key in ("submitted", "finished", "committed"):
        if repeat[key] != runs[0][key]:
            problems.append(f"{repeat['mode']} repeat changed {key}")
    submitted = sum(r["submitted"] for r in runs)
    failed = sum(r["submitted"] - r["committed"] for r in runs)
    if failed > MAX_FAILED_SHARE * submitted:
        problems.append(
            f"{failed} of {submitted} transactions failed on {workload}"
        )
    for run in runs:
        if not 0 < run["committed"] <= run["finished"] <= run["submitted"]:
            problems.append(f"seed {run['seed']} has inconsistent counts")
    return problems


def _simulated_metrics(pooled: List[dict]) -> Dict[str, float]:
    def p95_ms(key: str) -> float:
        latencies = [x for run in pooled for x in run[key]]
        return 1000.0 * float(np.percentile(latencies, 95))

    submitted = sum(r["submitted"] for r in pooled)
    return {
        "txn_committed_share": sum(r["committed"] for r in pooled) / submitted,
        "sim_p95_high_ms": p95_ms("latencies_high"),
        "sim_p95_low_ms": p95_ms("latencies_low"),
        "sim_goodput_txn_s": (
            sum(r["window_committed"] for r in pooled)
            / sum(r["window_s"] for r in pooled)
        ),
    }


def _at_reference_s(run: dict, phase: str, wall_ns: int) -> float:
    """A phase's wall time, in seconds at reference speed.

    The host-speed samples taken in the phase are taken out of its wall
    time, and the rest is scaled by the host's mean speed over them.
    """
    speed = run["speed"][phase]
    return (wall_ns - speed["sampled_ns"]) * speed["speed"] / 1e9


def _setup_s(run: dict) -> float:
    return _at_reference_s(
        run, "setup", run["run_entered_ns"] - run["spawned_ns"]
    )


def _wall_s(run: dict) -> float:
    return _at_reference_s(run, "run", run["run_ns"])


def _wall_metrics(runs: List[dict]) -> Dict[str, float]:
    median = statistics.median
    return {
        "setup_s": median(_setup_s(r) for r in runs),
        "wall_s": median(_wall_s(r) for r in runs),
        "committed_per_wall_s": median(
            r["committed"] / _wall_s(r) for r in runs
        ),
        "peak_rss_mb": median(r["max_rss_kb"] / 1024 for r in runs),
    }


def _layer_metrics(runs: List[dict], traced: dict) -> Dict[str, float]:
    median = statistics.median
    metrics = dict(traced["layers"])
    metrics["txn.failed_share"] = (
        (traced["submitted"] - traced["committed"]) / traced["submitted"]
    )
    metrics["harness.import_s"] = median(
        _at_reference_s(r, "import", r["imported_ns"] - r["spawned_ns"])
        for r in runs
    )
    metrics["harness.build_s"] = median(
        _at_reference_s(r, "build", r["run_entered_ns"] - r["imported_ns"])
        for r in runs
    )
    metrics["traced_wall_s"] = traced["total_ns"] / 1e9
    # The traced sub-run is not sampled, so it is compared with the plain
    # sub-runs' wall times less their samples.
    metrics["trace_overhead"] = traced["run_ns"] / median(
        r["run_ns"] - r["speed"]["run"]["sampled_ns"] for r in runs
    )
    return metrics


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
) -> dict:
    """Make one run and return the result object the last line prints.

    ``scale`` shortens the simulated spans for tests; the command line
    always uses 1.
    """
    pooled = POOLED[workload]
    minimum = 2 if trace else pooled
    # The closing sub-run costs about one plain sub-run, or two traced.
    reserve = 2.0 if trace else 1.0
    started = time.monotonic()
    runs: List[dict] = []
    stuck: List[dict] = []
    index = 0
    while True:
        run = subrun(workload, sub_seed(seed, index), "plain", 0, scale)
        print(_describe(run))
        if "livelock_at" in run:
            # The run stops: it is reported, and incorrect.
            stuck.append(run)
            if not runs:
                raise SubRunError(f"seed {run['seed']} livelocked")
            break
        runs.append(run)
        index += 1
        if len(runs) < minimum:
            continue
        each = statistics.median(r["elapsed_s"] for r in runs)
        if time.monotonic() - started + each * (1 + reserve) > seconds:
            break
    repeat = subrun(
        workload, runs[0]["seed"], "traced" if trace else "stepped", 1,
        scale,
    )
    print(_describe(repeat))
    problems = _checks(workload, runs, stuck, repeat)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if trace:
        values = _layer_metrics(runs, repeat)
        units = per_layer_units()
    else:
        pool = runs[:pooled]
        values = _wall_metrics(runs)
        values.update(_simulated_metrics(pool))
        units = END_TO_END
        print(
            f"the wall-clock metrics are medians over {len(runs)} sub-runs; "
            f"the simulated metrics pool {len(pool)} sub-runs: "
            f"{sum(len(r['latencies_high']) for r in pool)} high-priority "
            f"and {sum(len(r['latencies_low']) for r in pool)} low-priority "
            f"latency samples, "
            f"{sum(r['submitted'] - r['finished'] for r in pool)} "
            f"transactions unfinished"
        )
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    return {
        "correct": not problems,
        "attempted": sum(r["submitted"] for r in runs + stuck),
        "failed": sum(r["submitted"] - r["committed"] for r in runs + stuck),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to benchmark: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except SubRunError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
