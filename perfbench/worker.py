"""One sub-run of a benchmark workload, in a process of its own.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED MODE [SCALE]``

Builds the workload's point through the public harness
(:func:`points.run`, which calls
:func:`repro.harness.parallel.run_point`), runs it once under a
:class:`layers.Probe` of the given mode (``plain``, ``stepped`` or
``traced``) and prints one JSON object on its last line of output.

Timestamps that the parent compares with its own clock (the end of the
imports and the first entry to ``Simulator.run``) are
``time.monotonic_ns()`` readings, which share one clock across the
processes of a host.

The host's speed drifts within a sub-run (see ``speed.py``), so a plain
or stepped sub-run started as a program samples it from before the
program's imports to the end of the simulation, and reports each phase's
samples.  A traced sub-run is not sampled: the samples would count to
whichever layer they interrupted.

A watchdog thread ends a sub-run whose simulated time stops advancing
for :data:`STALL_S` wall seconds: the program has livelocked, firing
events at one simulated instant forever.  The sub-run then prints a
summary with ``livelock_at`` (the simulated time it stuck at) and the
transactions submitted and committed until then.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import time  # noqa: E402

from speed import SpeedSampler  # noqa: E402

SAMPLER = None
if __name__ == "__main__" and sys.argv[3:4] != ["traced"]:
    SAMPLER = SpeedSampler().start()

import json  # noqa: E402
import resource  # noqa: E402
import threading  # noqa: E402

from repro.txn.priority import Priority  # noqa: E402
from repro.verify.fingerprint import fingerprint_records  # noqa: E402

import points  # noqa: E402
from layers import Probe  # noqa: E402

IMPORTED_NS = time.monotonic_ns()

STALL_S = 5.0


def latencies(result, priority: Priority) -> list:
    """Latencies (s) of every committed transaction of one priority."""
    return [r.latency for r in result.stats.committed(priority)]


def _watch(
    probe: Probe, done: threading.Event, workload: str, seed: int, mode: str
) -> None:
    """End the process if the running simulation livelocks."""
    seen, since = None, time.monotonic()
    while not done.wait(0.5):
        now = probe.sim.now if probe.running else None
        if now is None or now != seen:
            seen, since = now, time.monotonic()
        elif time.monotonic() - since > STALL_S:
            # Every client of a run adds to the run's one collector.
            records = [
                r for client in list(probe.clients.values())[:1]
                for r in list(client.stats.records)
            ]
            print(json.dumps({
                "workload": workload,
                "seed": seed,
                "mode": mode,
                "livelock_at": now,
                "submitted": probe.submitted,
                "committed": sum(1 for r in records if r.committed),
            }), flush=True)
            os._exit(0)


def _speed(probe: Probe) -> dict:
    """The host-speed samples of each phase of a sampled sub-run."""
    if SAMPLER is None:
        return {}
    entered = probe.run_entered_ns
    return {
        "import": SAMPLER.phase(None, IMPORTED_NS),
        "build": SAMPLER.phase(IMPORTED_NS, entered),
        "setup": SAMPLER.phase(None, entered),
        "run": SAMPLER.phase(entered, probe.run_left_ns),
    }


def run(workload: str, seed: int, mode: str, scale: float = 1.0) -> dict:
    """Run one sub-run in this process and summarise it."""
    done = threading.Event()
    with Probe(mode) as probe:
        watchdog = threading.Thread(
            target=_watch, args=(probe, done, workload, seed, mode),
            daemon=True,
        )
        watchdog.start()
        try:
            start = time.perf_counter_ns()
            result = points.run(workload, seed, scale)
            total_ns = time.perf_counter_ns() - start
        finally:
            if SAMPLER is not None:
                SAMPLER.stop()
            done.set()
            watchdog.join()
    records = result.stats.records
    window = result.window
    summary = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "digest": fingerprint_records(records),
        "submitted": probe.submitted,
        "finished": len(records),
        "committed": sum(1 for r in records if r.committed),
        "window_s": window[1] - window[0],
        "window_committed": len(result.stats.committed(window=window)),
        "latencies_high": latencies(result, Priority.HIGH),
        "latencies_low": latencies(result, Priority.LOW),
        "imported_ns": IMPORTED_NS,
        "run_entered_ns": probe.run_entered_ns,
        "run_ns": probe.run_ns,
        "total_ns": total_ns,
        "speed": _speed(probe),
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    summary.update(probe.slice_summary())
    if mode == "traced":
        summary["layers"] = probe.layer_metrics(records, total_ns)
    return summary


def main(argv) -> int:
    if len(argv) not in (3, 4):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    scale = float(argv[3]) if len(argv) == 4 else 1.0
    print(json.dumps(run(argv[0], int(argv[1]), argv[2], scale)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
