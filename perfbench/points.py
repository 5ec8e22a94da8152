"""The benchmark's two workloads, built as the figure modules build theirs.

Every workload is one open-loop point: Poisson arrivals at a fixed total
rate, spread over the clients, with retries not counted as arrivals.  A
point is a function of the seed only; :func:`point_spec` returns the
:class:`~repro.harness.parallel.PointSpec` that
:func:`~repro.harness.parallel.run_point` runs.

``scale`` stretches the simulated load and drain spans (1.0 is the
benchmark's length); the tests use a small scale to keep each run short.

Two settings differ from the program's defaults, so that every
transaction of every seed commits inside the drain (see README.md,
Workloads): the clocks are perfectly synchronised (:data:`CLOCK`), and a
client gives a transaction up only after :data:`MAX_RETRIES` retries.
:func:`run` runs a point with both.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.cluster.clock import ClockConfig
from repro.harness.experiment import ExperimentResult, ExperimentSettings
from repro.harness.parallel import PointSpec, WorkloadSpec, run_point
from repro.net.topology import local_cluster_topology
from repro.systems.client import ClientDriver
from repro.workloads import RetwisWorkload, YcsbTWorkload

#: Fig 7(a): YCSB+T at the highest input rate of the sweep.
YCSBT_RATE = 350.0
#: Fig 14 shape, sized so the backlog fully drains (see README.md).
RETWIS_PARTITIONS = 2
RETWIS_SERVICE_TIME = 240e-6
RETWIS_OFFERED_PER_PARTITION = 900

#: Every node's clock reads simulated time exactly.  With the program's
#: default clocks (offsets up to 1 ms either way, re-synchronised every
#: second) the Natto server's dispatch timer livelocks in about one
#: ``ycsbt-natto`` sub-run in twenty.
CLOCK = ClockConfig(max_offset=0.0)

#: Retries after which a client gives a transaction up.  The program's
#: clients stop after 100, which a few low-priority ``ycsbt-natto``
#: transactions need more than (up to 110 in 82 sub-seeds).
MAX_RETRIES = 1000


def _ycsbt_natto(seed: int, scale: float) -> PointSpec:
    # Fig 7(a) at the quick scale's 4 s of load.  The drain is longer
    # than the quick scale's 6 s so that the retry chains of the
    # contended point finish inside it.
    settings = ExperimentSettings(
        system_config=ExperimentSettings().system_config.with_overrides(
            clock=CLOCK
        ),
    ).scaled(
        duration=4.0 * scale, trim=1.0 * scale, drain=20.0 * scale, seed=seed
    )
    return PointSpec(
        system="Natto-RECSF",
        x=YCSBT_RATE,
        input_rate=YCSBT_RATE,
        workload=WorkloadSpec.of(YcsbTWorkload),
        settings=settings,
    )


def _retwis_saturated(seed: int, scale: float) -> PointSpec:
    # figure14's settings, with fewer partitions, a higher CPU cost per
    # message and a lower offered load, so that the backlog drains.
    settings = ExperimentSettings(
        topology_factory=local_cluster_topology,
        clients_per_dc=4,
        system_config=ExperimentSettings().system_config.with_overrides(
            num_partitions=RETWIS_PARTITIONS,
            server_service_time=RETWIS_SERVICE_TIME,
            clock=CLOCK,
        ),
        probe_warmup=1.5,
    ).scaled(
        duration=2.0 * scale, trim=0.5 * scale, drain=8.0 * scale, seed=seed
    )
    return PointSpec(
        system="Natto-RECSF",
        x=RETWIS_PARTITIONS,
        input_rate=float(RETWIS_OFFERED_PER_PARTITION * RETWIS_PARTITIONS),
        workload=WorkloadSpec.of(RetwisWorkload, uniform_keys=1_000_000),
        settings=settings,
    )


#: The drains are at least twice the longest retry chain seen after the
#: load (README.md, Workloads).
WORKLOADS = {
    "ycsbt-natto": _ycsbt_natto,
    "retwis-saturated": _retwis_saturated,
}


def point_spec(name: str, seed: int, scale: float = 1.0) -> PointSpec:
    """The point for workload ``name`` at ``seed``."""
    return WORKLOADS[name](seed, scale)


@contextmanager
def _retry_budget():
    """Clients made inside give a transaction up after :data:`MAX_RETRIES`.

    The harness makes its clients with the program's default budget and
    has no setting for it, so the budget is set on each client as it is
    made; ``ClientDriver.__init__`` is restored on the way out.
    """
    original = ClientDriver.__dict__["__init__"]

    def init(client: ClientDriver, *args, **kwargs) -> None:
        original(client, *args, **kwargs)
        client.max_retries = MAX_RETRIES

    ClientDriver.__init__ = init
    try:
        yield
    finally:
        ClientDriver.__init__ = original


def run(name: str, seed: int, scale: float = 1.0) -> ExperimentResult:
    """Run workload ``name`` at ``seed`` once, with :data:`MAX_RETRIES`."""
    spec = point_spec(name, seed, scale)
    with _retry_budget():
        return run_point(spec).results[0]
