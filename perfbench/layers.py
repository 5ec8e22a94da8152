"""Outside-in measurement of one run, from the benchmark's own files.

A :class:`Probe` replaces class attributes of the program with wrappers
for the length of one run and puts every original back afterwards.  It
never edits the program's source, and nothing it records feeds back into
the simulation, so a probed run makes the same decisions as a plain one
(the worker checks this through the transaction-record digest).

Three modes, each adding to the one before:

* ``plain`` — times ``Simulator.run`` and counts ``ClientDriver.submit``
  calls.  This is what the end-to-end metrics are measured with.
* ``stepped`` — runs ``Simulator.run(until=T)`` as a sequence of calls
  that each advance 50 ms of simulated time, and after each slice
  samples the slice's wall time, the raw heap size and the clients'
  in-flight transactions.
* ``traced`` — also wraps each layer's entry points in timed frames.
  A frame's self time is its own time minus the frames nested in it, so
  a handler's self time excludes the ``Network.send``/``call`` and
  ``RaftReplica.propose`` calls it makes.  A layer's self time is the sum
  over its frames; time spent outside every frame is unattributed.

Layers are the ``repro`` packages.  Frames:

========== ==========================================================
layer      entry points
========== ==========================================================
sim        ``Simulator.run`` (the root frame), ``schedule``,
           ``schedule_at``, ``post``, ``post_at``; ``Timer.cancel``
net        ``Network.send``, ``call``, ``_dispatch`` (every message,
           replies included), ``_arrive``/``_handle`` (delivery);
           ``handle_*`` defined in ``repro.net`` (probes)
raft       ``RaftReplica.propose``; ``handle_*`` defined in ``repro.raft``
cluster    ``ServiceModel.admission_delay``
core       ``handle_*`` and ``execute`` defined in ``repro.core``
systems    ``handle_*`` and ``execute`` defined in ``repro.systems``;
           ``ClientDriver._run`` (the retry loop)
store      ``PreparedSet.conflicting``, ``is_free``, ``add``, ``remove``
txn        ``StatsCollector.add``
workloads  ``next_transaction`` of each workload class
========== ==========================================================

``execute`` and ``_run`` are generator functions; their frames time each
resumption of the generator, not its creation.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster.node import ServiceModel
from repro.net.network import Network
from repro.obs.abort import AbortReason
from repro.raft.node import RaftReplica
from repro.sim.kernel import Simulator, Timer
from repro.store.occ import PreparedSet
from repro.systems.base import Cluster
from repro.systems.client import ClientDriver
from repro.txn.stats import StatsCollector

#: Simulated length of one slice of a stepped run, in seconds.
SLICE = 0.05

MODES = ("plain", "stepped", "traced")

#: Packages measured as layers, in report order.
LAYERS = (
    "sim", "net", "raft", "cluster", "core", "systems", "store", "txn",
    "workloads",
)

#: Message methods reported one by one: every method that is at least 1%
#: of the traffic on one of the workloads.
MESSAGE_METHODS = (
    "append_entries",
    "append_entries_response",
    "probe",
    "probe.reply",
    "read_and_prepare",
    "read_and_prepare.reply",
    "commit_request",
    "vote",
    "commit_txn",
    "txn_event",
)

_SCHEDULE_KEYS = ("schedule", "schedule_at", "post", "post_at")


def _resume(generator, value, error):
    """One resumption of ``generator``: send a value or throw an error."""
    if error is None:
        return generator.send(value)
    return generator.throw(error)


class _Patches:
    """Class attributes replaced for one run, restorable in reverse."""

    def __init__(self) -> None:
        self.saved: List[tuple] = []

    def replace(self, cls: type, name: str, make: Callable) -> None:
        original = cls.__dict__[name]
        self.saved.append((cls, name, original))
        setattr(cls, name, make(original))

    def restore(self) -> None:
        while self.saved:
            cls, name, original = self.saved.pop()
            setattr(cls, name, original)


def _classes_of(package: str):
    """Every class defined in a module of ``repro.<package>``."""
    root = importlib.import_module(f"repro.{package}")
    modules = [root]
    for info in pkgutil.walk_packages(root.__path__, root.__name__ + "."):
        modules.append(importlib.import_module(info.name))
    for module in modules:
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                yield cls


class Probe:
    """Measurement of one run; use as a context manager around it."""

    def __init__(self, mode: str = "plain") -> None:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; known: {MODES}")
        self.mode = mode
        self._patches = _Patches()
        #: ``time.monotonic_ns()`` at the first entry to Simulator.run,
        #: comparable with readings taken in other processes, and at the
        #: last exit from it.
        self.run_entered_ns: Optional[int] = None
        self.run_left_ns: Optional[int] = None
        self.run_ns = 0
        #: The simulator of the run, and whether its ``run`` is executing.
        self.sim: Optional[Simulator] = None
        self.running = False
        self.submitted = 0
        self.clusters: List[Cluster] = []
        #: The clients that submitted transactions, by identity.
        self.clients: Dict[int, ClientDriver] = {}
        self.slice_ns: List[int] = []
        self.heap_sizes: List[int] = []
        self.inflight: List[int] = []
        # Frame accounting: one child-time accumulator per open frame;
        # the bottom entry collects the time of top-level frames.
        self._stack: List[int] = [0]
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.key_ns: Dict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.methods: Counter = Counter()
        self.cancelled = 0
        self.pending_peak = 0
        self.commit_waits: List[float] = []
        self.cpu_waits: List[float] = []

    # ------------------------------------------------------------------
    # Installation

    def __enter__(self) -> "Probe":
        try:
            self._install()
        except BaseException:
            self._patches.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._patches.restore()

    @property
    def replaced(self) -> List[tuple]:
        """(class, name, original) of every attribute currently wrapped."""
        return list(self._patches.saved)

    def _install(self) -> None:
        patch = self._patches.replace
        traced = self.mode == "traced"
        patch(Simulator, "run",
              self._framed("sim", "run", self._run_wrapper) if traced
              else self._run_wrapper)
        patch(ClientDriver, "submit", self._submit_wrapper)
        patch(Cluster, "__init__", self._cluster_wrapper)
        if traced:
            self._install_frames()

    def _framed(self, layer: str, name: str, inner: Callable = None):
        """A maker of a frame around an original (or around ``inner``'s
        wrapper of it), for :meth:`_Patches.replace`."""
        if inner is None:
            return lambda original: self._frame(original, layer, name)
        return lambda original: self._frame(inner(original), layer, name)

    def _install_frames(self) -> None:
        patch = self._patches.replace
        framed = self._framed

        def generator_framed(layer: str, name: str):
            return lambda original: self._generator_frame(
                original, layer, name
            )

        for name in _SCHEDULE_KEYS:
            patch(Simulator, name, framed("sim", name))
        patch(Timer, "cancel", framed("sim", "cancel", self._cancel_wrapper))
        for name in ("send", "call", "_arrive", "_handle"):
            patch(Network, name, framed("net", name))
        patch(Network, "_dispatch",
              framed("net", "_dispatch", self._dispatch_wrapper))
        patch(RaftReplica, "propose",
              framed("raft", "propose", self._propose_wrapper))
        patch(ServiceModel, "admission_delay",
              framed("cluster", "admission_delay", self._admission_wrapper))
        for name in ("conflicting", "is_free", "add", "remove"):
            patch(PreparedSet, name, framed("store", name))
        patch(StatsCollector, "add", framed("txn", "record_add"))
        patch(ClientDriver, "_run", generator_framed("systems", "_run"))
        for layer in ("net", "raft", "core", "systems", "workloads"):
            for cls in _classes_of(layer):
                for name, value in list(vars(cls).items()):
                    if not inspect.isfunction(value):
                        continue
                    if name.startswith("handle_") or name == "next_transaction":
                        patch(cls, name, framed(layer, name))
                    elif name == "execute" and inspect.isgeneratorfunction(
                        value
                    ):
                        patch(cls, name, generator_framed(layer, name))

    # ------------------------------------------------------------------
    # Wrappers used at every level

    def _run_wrapper(self, original: Callable) -> Callable:
        def run(sim: Simulator, until: Optional[float] = None) -> None:
            if self.run_entered_ns is None:
                self.run_entered_ns = time.monotonic_ns()
            self.sim = sim
            self.running = True
            start = time.perf_counter_ns()
            try:
                if self.mode == "plain" or until is None:
                    original(sim, until)
                else:
                    self._run_in_slices(original, sim, until)
            finally:
                self.run_ns += time.perf_counter_ns() - start
                self.run_left_ns = time.monotonic_ns()
                self.running = False

        return run

    def _run_in_slices(
        self, original: Callable, sim: Simulator, until: float
    ) -> None:
        clock = time.perf_counter_ns
        clients = self.clients.values()
        step = int(sim.now // SLICE) + 1
        while True:
            end = min(step * SLICE, until)
            start = clock()
            original(sim, end)
            self.slice_ns.append(clock() - start)
            self.heap_sizes.append(sim.heap_size)
            self.inflight.append(sum(c.inflight for c in clients))
            # Simulator.stop() ends the whole run, not just the slice.
            if end >= until or sim._stopped:
                return
            step += 1

    def _submit_wrapper(self, original: Callable) -> Callable:
        def submit(client: ClientDriver, spec):
            self.submitted += 1
            self.clients[id(client)] = client
            return original(client, spec)

        return submit

    def _cluster_wrapper(self, original: Callable) -> Callable:
        def init(cluster: Cluster, *args, **kwargs) -> None:
            original(cluster, *args, **kwargs)
            self.clusters.append(cluster)

        return init

    # ------------------------------------------------------------------
    # Frames (traced level)

    def _frame(self, original: Callable, layer: str, name: str) -> Callable:
        key = f"{layer}.{name}"
        stack = self._stack
        clock = time.perf_counter_ns
        self_ns = self.self_ns
        key_ns = self.key_ns
        calls = self.calls

        def frame(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - stack.pop()
                stack[-1] += elapsed
                self_ns[layer] += own
                key_ns[key] += own
                calls[key] += 1

        return frame

    def _generator_frame(
        self, original: Callable, layer: str, name: str
    ) -> Callable:
        resume = self._frame(_resume, layer, name)

        def resumptions(generator):
            value, error = None, None
            while True:
                try:
                    item = resume(generator, value, error)
                except StopIteration as stop:
                    return stop.value
                try:
                    value, error = (yield item), None
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded
                    value, error = None, exc

        def frame(*args, **kwargs):
            return resumptions(original(*args, **kwargs))

        return frame

    def _cancel_wrapper(self, original: Callable) -> Callable:
        def cancel(timer: Timer) -> None:
            if not timer.cancelled:
                self.cancelled += 1
            return original(timer)

        return cancel

    def _dispatch_wrapper(self, original: Callable) -> Callable:
        methods = self.methods

        def dispatch(network: Network, message) -> None:
            methods[message.method] += 1
            return original(network, message)

        return dispatch

    def _propose_wrapper(self, original: Callable) -> Callable:
        waits = self.commit_waits

        def propose(replica: RaftReplica, payload):
            sim = replica.sim
            proposed = sim.now
            future = original(replica, payload)
            future.add_done_callback(
                lambda _f: waits.append(sim.now - proposed)
            )
            # The proposals awaiting commit: the map that the leader
            # scans on every commit advance.
            pending = len(replica._commit_futures)
            if pending > self.pending_peak:
                self.pending_peak = pending
            return future

        return propose

    def _admission_wrapper(self, original: Callable) -> Callable:
        waits = self.cpu_waits

        def admission_delay(service: ServiceModel, cost: float) -> float:
            delay = original(service, cost)
            if cost > 0.0:
                # delay - cost is the queueing time, up to rounding.
                wait = delay - cost
                waits.append(wait if wait > 1e-9 else 0.0)
            return delay

        return admission_delay

    # ------------------------------------------------------------------
    # Results

    def slice_summary(self) -> dict:
        """Slice-level samples of a stepped or traced run."""
        if not self.slice_ns:
            return {}
        walls_ms = np.array(self.slice_ns) / 1e6
        return {
            "slices": len(self.slice_ns),
            "slice_wall_ms_p50": float(np.percentile(walls_ms, 50)),
            "slice_wall_ms_p95": float(np.percentile(walls_ms, 95)),
            "heap_peak": max(self.heap_sizes),
            "inflight_peak": max(self.inflight),
        }

    def layer_metrics(self, records, total_ns: int) -> Dict[str, float]:
        """Per-layer metrics of a traced run.

        ``records`` are the run's transaction records and ``total_ns``
        the wall time of the whole traced run (build, run and results);
        the layers' self times plus ``unattributed_s`` add up to it.
        """
        committed = sum(1 for r in records if r.committed) or 1
        calls = self.calls
        key_ns = self.key_ns
        network = self.clusters[-1].network
        messages = network.messages_sent
        slices = self.slice_summary()

        def per_call(keys) -> float:
            count = sum(calls[k] for k in keys)
            return sum(key_ns[k] for k in keys) / count if count else 0.0

        def handler_keys(layer: str):
            return [k for k in calls if k.startswith(layer + ".handle_")]

        def ms_percentile(values, q) -> float:
            return 1000.0 * float(np.percentile(values, q)) if values else 0.0

        events = sum(calls["sim." + k] for k in _SCHEDULE_KEYS)
        timers = calls["sim.schedule"] + calls["sim.schedule_at"]
        out: Dict[str, float] = {
            "sim.events_per_commit": events / committed,
            "sim.ns_per_event": self.self_ns["sim"] / events if events else 0.0,
            "sim.heap_peak": slices["heap_peak"],
            "sim.cancelled_share": self.cancelled / timers if timers else 0.0,
            "sim.slice_wall_ms_p50": slices["slice_wall_ms_p50"],
            "sim.slice_wall_ms_p95": slices["slice_wall_ms_p95"],
            "net.messages_per_commit": messages / committed,
            "net.bytes_per_commit": network.bytes_sent / committed,
            "net.ns_per_send": (
                self.self_ns["net"] / messages if messages else 0.0
            ),
        }
        for method in MESSAGE_METHODS:
            out[f"net.msgs.{method}_per_commit"] = (
                self.methods[method] / committed
            )
        probes = self.methods["probe"] + self.methods["probe.reply"]
        out["net.probe_share"] = probes / messages if messages else 0.0
        out.update({
            "raft.proposals_per_commit": calls["raft.propose"] / committed,
            "raft.ns_per_append_entries": per_call(
                ["raft.handle_append_entries"]
            ),
            "raft.ns_per_append_response": per_call(
                ["raft.handle_append_entries_response"]
            ),
            "raft.commit_wait_ms_p50": ms_percentile(self.commit_waits, 50),
            "raft.commit_wait_ms_p95": ms_percentile(self.commit_waits, 95),
            "raft.pending_commits_peak": self.pending_peak,
            "cluster.cpu_wait_ms_p50": ms_percentile(self.cpu_waits, 50),
            "cluster.cpu_wait_ms_p95": ms_percentile(self.cpu_waits, 95),
            "cluster.cpu_queued_share": (
                sum(1 for w in self.cpu_waits if w > 0.0)
                / len(self.cpu_waits) if self.cpu_waits else 0.0
            ),
        })
        for layer in ("core", "systems"):
            keys = handler_keys(layer)
            out[f"{layer}.handler_calls_per_commit"] = (
                sum(calls[k] for k in keys) / committed
            )
            out[f"{layer}.ns_per_handler_call"] = per_call(keys)
        out["systems.inflight_peak"] = slices["inflight_peak"]
        checks = calls["store.conflicting"]
        out["store.conflict_checks_per_commit"] = checks / committed
        out["store.ns_per_conflict_check"] = (
            (key_ns["store.conflicting"] + key_ns["store.is_free"]) / checks
            if checks else 0.0
        )
        out["txn.attempts_per_commit"] = (
            sum(r.retries + 1 for r in records) / committed
        )
        reasons = Counter(
            reason for r in records for reason in r.abort_reasons
        )
        for reason in AbortReason:
            out[f"txn.aborts_per_commit.{reason.value}"] = (
                reasons[reason.value] / committed
            )
        out["txn.ns_per_record_add"] = per_call(["txn.record_add"])
        out["workloads.ns_per_txn"] = per_call(["workloads.next_transaction"])
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
        out["unattributed_s"] = (total_ns - sum(self.self_ns.values())) / 1e9
        return out
