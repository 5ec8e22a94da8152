"""Run one experiment: deploy, drive load, measure.

Measurement follows §5.1:

* clients are application servers in every datacenter (two per DC by
  default), all generating transactions at the same rate; the
  *transaction input rate* is the total across clients and counts only
  new transactions, not retries;
* aborted transactions retry immediately; 100 failed retries mark the
  transaction failed and drop it from latency stats;
* the measurement window trims a warm-up and cool-down interval (the
  paper trims 10 s off both ends of a 60 s run — scaled runs trim
  proportionally);
* experiments are repeated with independent seeds; aggregates carry a
  95% confidence interval;
* a run ends once every transaction has finished and a settle window
  has passed (:func:`run_until_settled`), never later than the drain
  cap; what happens after the last transaction never changes a result.

Simulated durations are configurable because a full 60 s x 10 repeats
paper run is hours of host CPU; the benchmark suite uses scaled-down
defaults and the CLI exposes ``--scale full`` for paper-scale runs.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.topology import Topology, azure_topology
from repro.obs.export import write_jsonl
from repro.obs.trace import Tracer
from repro.systems.base import Cluster, SystemConfig, TransactionSystem
from repro.sim import Simulator
from repro.systems.client import MAX_RETRIES, ClientDriver
from repro.txn.priority import Priority
from repro.txn.stats import StatsCollector
from repro.workloads.base import Workload

SystemFactory = Callable[[], TransactionSystem]
WorkloadFactory = Callable[[np.random.Generator], Workload]

def seed_schedule(base_seed: int, repeats: int) -> tuple:
    """Per-repetition seeds for ``repeats`` runs of base seed ``base_seed``.

    The mapping is ``base_seed * stride + repetition`` with ``stride =
    max(1000, repeats)``: for any two distinct (base seed, repetition)
    pairs produced by one call the seeds differ, because repetition
    indexes never reach the stride.  For up to 1000 repetitions (the
    paper uses 10) the stride is pinned at 1000, which reproduces the
    historical ``seed * 1000 + repetition`` derivation exactly — every
    existing figure keeps its numbers.  Beyond 1000 repetitions the
    stride grows instead of silently colliding with the next base
    seed's block, which the old fixed multiplier did.
    """
    if repeats < 0:
        raise ValueError(f"repeats must be non-negative, got {repeats}")
    stride = max(1000, repeats)
    return tuple(base_seed * stride + rep for rep in range(repeats))


@dataclass(frozen=True)
class ExperimentSettings:
    """Deployment and measurement parameters."""

    topology_factory: Callable[[], Topology] = azure_topology
    system_config: SystemConfig = field(default_factory=SystemConfig)
    clients_per_dc: int = 2
    duration: float = 20.0      # load-generation span (paper: 60 s)
    trim: float = 4.0           # cut from both ends (paper: 10 s)
    probe_warmup: float = 2.0   # delay-estimate warm-up before load
    drain: float = 15.0         # cap on simulated time after load
    seed: int = 0
    #: Attach a :class:`~repro.obs.trace.Tracer` to the run's simulator
    #: (spans and events).
    tracing: bool = False
    #: Directory for the run's trace export when tracing is on; ``None``
    #: disables export.
    trace_dir: Optional[str] = None
    #: Filename stem for this run's trace export, normally derived by
    #: the sweep machinery from (figure tag, system, x-value); the run's
    #: seed is always appended, which keeps names collision-free across
    #: repetitions and parallel workers without any shared counter.
    trace_label: Optional[str] = None

    def scaled(self, **overrides) -> "ExperimentSettings":
        return replace(self, **overrides)


@dataclass
class ExperimentResult:
    """Stats plus the measurement window, with the paper's metrics."""

    system_name: str
    stats: StatsCollector
    window: tuple
    input_rate: float
    #: Transactions still in flight when the run stopped: work the
    #: metrics leave out because the drain cap cut it off.
    unfinished: int
    #: The run's work, read from the layers' always-on counters: kernel
    #: events fired, and messages and bytes the network sent.
    events_fired: int
    messages_sent: int
    bytes_sent: int
    #: The deployed system object (stores, counters) for post-hoc
    #: inspection; None after serialization.
    system: Optional[TransactionSystem] = None
    #: The run's tracer (spans and events) when tracing was on; None
    #: otherwise and after serialization.
    tracer: Optional[Tracer] = None

    def p95_ms(
        self,
        priority: Optional[Priority] = None,
        txn_type: Optional[str] = None,
    ) -> float:
        return 1000.0 * self.stats.p95_latency(
            priority, self.window, txn_type
        )

    @property
    def p95_high_ms(self) -> float:
        return self.p95_ms(Priority.HIGH)

    @property
    def p95_low_ms(self) -> float:
        return self.p95_ms(Priority.LOW)

    def goodput(self, priority: Optional[Priority] = None) -> float:
        return self.stats.goodput(self.window, priority)

    @property
    def committed_per_second(self) -> float:
        return self.goodput()

    def detach(self) -> "ExperimentResult":
        """A transportable copy: no live ``system``/``tracer`` objects.

        The detached result pickles cheaply (the transaction records)
        and still answers every metric query and keeps the work
        counts — parallel workers ship
        these back to the parent, which is why serial and parallel
        sweeps extract identical numbers.
        """
        if self.system is None and self.tracer is None:
            return self
        return replace(self, system=None, tracer=None)


def run_experiment(
    system_factory: SystemFactory,
    workload_factory: WorkloadFactory,
    input_rate: float,
    settings: ExperimentSettings = ExperimentSettings(),
) -> ExperimentResult:
    """One run of one system at one input rate.

    Load runs from ``probe_warmup`` for ``duration``; the run then ends
    through :func:`run_until_settled`, capped ``drain`` after the load.
    """
    system = system_factory()
    topology = settings.topology_factory()
    tracer = Tracer() if settings.tracing else None
    cluster, clients, stats = deploy(
        system,
        topology,
        settings.system_config,
        settings.seed,
        [
            (f"client-{dc}-{i}", dc)
            for dc in topology.datacenters
            for i in range(settings.clients_per_dc)
        ],
        tracer=tracer,
    )
    workload = workload_factory(cluster.streams.stream("workload"))

    per_client_rate = input_rate / len(clients)
    load_start = settings.probe_warmup
    load_end = load_start + settings.duration

    def start_load() -> None:
        for client in clients:
            rng = cluster.streams.stream(f"client.{client.name}")
            client.run_open_loop(workload, per_client_rate, load_end, rng)

    cluster.sim.schedule(load_start, start_load)
    run_until_settled(
        cluster.sim, clients, after=load_end, cap=load_end + settings.drain
    )

    window = (load_start + settings.trim, load_end - settings.trim)
    if tracer is not None and settings.trace_dir is not None:
        _export_trace(tracer, system.name, settings, input_rate)
    return ExperimentResult(
        system.name, stats, window, input_rate,
        unfinished=sum(client.inflight for client in clients),
        events_fired=cluster.sim.events_fired,
        messages_sent=cluster.network.messages_sent,
        bytes_sent=cluster.network.bytes_sent,
        system=system, tracer=tracer,
    )


def deploy(
    system: TransactionSystem,
    topology: Topology,
    config: SystemConfig,
    seed: int,
    clients: Iterable[Tuple[str, str]],
    max_retries: int = MAX_RETRIES,
    tracer: Optional[Tracer] = None,
) -> Tuple[Cluster, List[ClientDriver], StatsCollector]:
    """Build a cluster, set ``system`` up on it, and add its clients.

    ``clients`` holds one ``(name, datacenter)`` pair per client.  Every
    client gets the clock ``cluster.make_clock(name)`` and reports to
    one shared :class:`StatsCollector`.  Random and clock streams are
    keyed by name, so a name fixes a client's behaviour.  ``tracer``,
    if given, is attached before the setup, so it also sees the messages
    the setup sends.
    """
    cluster = Cluster(topology, config, seed)
    if tracer is not None:
        tracer.attach(cluster.sim)
    system.setup(cluster)
    stats = StatsCollector()
    drivers = [
        ClientDriver(
            cluster.sim,
            cluster.network,
            name,
            dc,
            system,
            stats,
            max_retries=max_retries,
            clock=cluster.make_clock(name),
        )
        for name, dc in clients
    ]
    return cluster, drivers, stats


#: Simulated seconds between checks for transactions still in flight.
STEP_S = 0.1

#: Simulated seconds run on after the last transaction finished.
SETTLE_S = 5.0


def run_until_settled(
    sim: Simulator,
    clients: Sequence[ClientDriver],
    after: float,
    cap: float,
) -> bool:
    """Run to ``after``, then until no client has a transaction in
    flight, then :data:`SETTLE_S` more; never past ``cap``.

    ``after`` must not precede the last submission: a gap with nothing
    in flight is only read as the end of the run after it.  The loop
    checks every :data:`STEP_S`.  The settle window is there because a
    client learns its transaction's outcome before the protocol is
    done: a coordinator acks the client before the participant replicas
    install the writes, so replica state is inspected only after that
    tail.  Returns whether every transaction finished.
    """

    def busy() -> bool:
        return any(client.inflight for client in clients)

    sim.run(until=min(after, cap))
    steps = 0
    while busy() and sim.now < cap:
        steps += 1
        sim.run(until=min(after + steps * STEP_S, cap))
    sim.run(until=min(sim.now + SETTLE_S, cap))
    return not busy()


def slugify(text) -> str:
    """Filename-safe form of a system label or x-value."""
    return re.sub(r"[^a-z0-9._-]+", "-", str(text).lower()).strip("-")


def _export_trace(
    tracer: Tracer,
    system_name: str,
    settings: ExperimentSettings,
    input_rate: float,
) -> None:
    """Write the run's trace under ``settings.trace_dir``.

    The name comes entirely from the run's own settings — the sweep
    machinery bakes (figure tag, system, x-value) into ``trace_label``
    and every repetition has a distinct seed (:func:`seed_schedule`) —
    so concurrent workers can't collide and no shared counter is
    needed.  ``makedirs(exist_ok=True)`` is atomic enough for the
    parallel case: the first worker wins and the rest pass through.
    """
    stem = settings.trace_label or (
        f"{slugify(system_name)}-r{input_rate:g}"
    )
    os.makedirs(settings.trace_dir, exist_ok=True)
    path = os.path.join(
        settings.trace_dir, f"{stem}-seed{settings.seed}.trace.jsonl"
    )
    write_jsonl(
        tracer,
        path,
        meta={
            "system": system_name,
            "seed": settings.seed,
            "input_rate": input_rate,
            "duration": settings.duration,
        },
    )


@dataclass
class RepeatedResult:
    """Mean and 95% CI over independent repetitions."""

    system_name: str
    input_rate: float
    results: List[ExperimentResult]

    def _ci(self, values: Sequence[float]) -> tuple:
        values = [v for v in values if not math.isnan(v)]
        if not values:
            return (float("nan"), float("nan"))
        mean = float(np.mean(values))
        if len(values) == 1:
            return (mean, 0.0)
        half = 1.96 * float(np.std(values, ddof=1)) / math.sqrt(len(values))
        return (mean, half)

    def p95_high_ms(self) -> tuple:
        return self._ci([r.p95_high_ms for r in self.results])

    def p95_low_ms(self) -> tuple:
        return self._ci([r.p95_low_ms for r in self.results])

    def p95_ms(self, **kwargs) -> tuple:
        return self._ci([r.p95_ms(**kwargs) for r in self.results])

    def goodput(self, priority: Optional[Priority] = None) -> tuple:
        return self._ci([r.goodput(priority) for r in self.results])

