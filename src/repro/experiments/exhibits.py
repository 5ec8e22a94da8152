"""The exhibit table: every figure of the paper's evaluation (§5) and the
ablations of Natto's design choices, one :class:`Exhibit` row each.

Figures (names are the CLI's):

* ``fig7a``/``fig7c``/``fig7e`` — Figure 7, impact of the input rate:
  YCSB+T on the emulated-WAN cluster with all eleven systems, then
  Retwis and SmallBank on Azure with eight.  The (b)/(d)/(f)
  sub-figures plot low-priority 95P latency against committed goodput;
  both series are reported against input rate, which carries the same
  information as the paper's parametric plot.
* ``fig8a``/``fig8b`` — Figure 8, contention: Zipf 0.65-0.95.  OCC
  systems (Carousel, TAPIR) retry their way to order-of-magnitude
  latency increases while Natto's timestamp order and priority
  mechanisms keep the high-priority tail bounded.
* ``fig9`` — the share of high-priority transactions, 10-100%, for the
  prioritizing systems only: plain 2PL is flat, (P)/(POW) converge up to
  it as fewer low-priority victims exist, and Natto stays low until
  high-priority transactions dominate the mix.
* ``fig10`` — SmallBank with sendPayment as the only high-priority
  type; the paper plots each rate's increase of the 95P latency over
  its value at 100 txn/s.
* ``fig11`` — Pareto delay variance 0-40%.  Natto's timestamps come
  from p95 delay estimates, so more variance means more late arrivals
  and timestamp-order aborts.
* ``fig12`` — packet loss 0-3%.  Loss adds retransmission latency and a
  Mathis-bound bandwidth collapse (:mod:`repro.net.loss`) that
  saturates the systems pushing the most bytes first.
* ``fig13`` — hybrid AWS+Azure: VA/WA replaced by AWS us-east/us-west,
  whose cross-provider links carry more jitter.  A bar chart in the
  paper; a one-row table here.
* ``fig14`` — peak throughput vs partitions on the local cluster, with
  uniform keys (no contention) and load offered beyond every leader's
  CPU, so committed goodput reads out the saturation point.

Ablations (beyond the paper's figures), each on Natto-RECSF:

* ``abl-margin`` — headroom added to the p95 delay estimate.  Too
  little: requests arrive after their own timestamps and abort; too
  much: every transaction waits longer than necessary.
* ``abl-skip-rule`` — §3.3.1's completion-time estimate that spares a
  low-priority transaction about to finish anyway, on and off.
* ``abl-probes`` — the probe interval, i.e. how fresh the delay
  estimates are once delays jitter.

Table 1 is a measurement, not a sweep: :mod:`repro.experiments.table1`.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

from repro.cluster.clock import ClockConfig
from repro.core import Natto
from repro.core.config import natto_recsf
from repro.experiments.common import Exhibit, Table
from repro.harness.experiment import ExperimentSettings, RepeatedResult
from repro.harness.parallel import PointSpec, WorkloadSpec
from repro.harness.systems import ALL_SYSTEMS, AZURE_SYSTEMS
from repro.net.loss import LossConfig
from repro.net.topology import hybrid_cloud_topology, local_cluster_topology
from repro.systems.base import SystemConfig
from repro.txn.priority import Priority
from repro.workloads import RetwisWorkload, SmallBankWorkload, YcsbTWorkload

TWOPL_AND_NATTO = ("2PL+2PC", "2PL+2PC(P)", "2PL+2PC(POW)", "Natto-RECSF")

#: Fig 13: jitter (std/mean) on same-provider links; cross-provider
#: links are scaled up by the topology's jitter multiplier.
BASE_JITTER_CV = 0.01
#: Fig 14: offered load per partition — beyond each leader's service
#: capacity, so committed goodput reads out the saturation point.
OFFERED_PER_PARTITION = 2600
#: Fig 14: per-message CPU cost, calibrated so a partition leader
#: saturates in the paper's range (~1500 committed txn/s each).
SERVICE_TIME = 60e-6
#: The ablations' input rate.
ABLATION_RATE = 250


def _high(title: str) -> Table:
    return Table("high", title, RepeatedResult.p95_high_ms)


def _low(title: str) -> Table:
    return Table("low", title, RepeatedResult.p95_low_ms)


HIGH_LOW = (
    _high("95P latency, high-priority"),
    _low("95P latency, low-priority"),
    Table(
        "low_goodput",
        "committed low-priority txn/s",
        lambda r: r.goodput(Priority.LOW),
        unit="txn/s",
    ),
)


def _send_payment_p95(result: RepeatedResult) -> tuple:
    return result.p95_ms(priority=None, txn_type="send_payment")


def _settings(**config) -> ExperimentSettings:
    """The default settings with ``config`` overriding the system's."""
    return ExperimentSettings(
        system_config=SystemConfig().with_overrides(**config)
    )


def _rate_point(workload_cls: type, system: str, rate) -> PointSpec:
    return PointSpec(system, rate, float(rate), WorkloadSpec.of(workload_cls))


def _zipf_point(workload_cls: type, rate: float, system: str, theta):
    return PointSpec(
        system, theta, rate, WorkloadSpec.of(workload_cls, zipf_theta=theta)
    )


def fig14_point(
    system: str,
    partitions: int,
    offered_per_partition: int = OFFERED_PER_PARTITION,
    service_time: float = SERVICE_TIME,
) -> PointSpec:
    """``offered_per_partition``/``service_time`` let cheap runs saturate
    with fewer simulated events (higher CPU cost per message = earlier
    saturation = same linear-scaling shape at a fraction of the event
    count)."""
    settings = ExperimentSettings(
        topology_factory=local_cluster_topology,
        clients_per_dc=4,
        system_config=SystemConfig().with_overrides(
            num_partitions=partitions,
            server_service_time=service_time,
            clock=ClockConfig(max_offset=0.0002),
        ),
        probe_warmup=1.5,
    )
    return PointSpec(
        system,
        partitions,
        float(offered_per_partition * partitions),
        WorkloadSpec.of(RetwisWorkload, uniform_keys=1_000_000),
        settings,
    )


def _ablation_point(
    system: str, x, settings: ExperimentSettings = ExperimentSettings(),
    **config,
) -> PointSpec:
    """Natto-RECSF with ``config`` changed: an unregistered variant, so
    the system travels as a ``functools.partial`` factory."""
    if system != "Natto-RECSF":
        raise ValueError(f"the ablations vary Natto-RECSF, not {system!r}")
    return PointSpec(
        partial(Natto, natto_recsf(**config)),
        x,
        float(ABLATION_RATE),
        WorkloadSpec.of(YcsbTWorkload),
        settings,
    )


_ROWS = (
    Exhibit(
        "fig7a", "fig7-ycsbt", "Figure 7(a/b) YCSB+T",
        "input rate (txn/s)", (50, 150, 250, 350), ALL_SYSTEMS,
        partial(_rate_point, YcsbTWorkload), HIGH_LOW,
    ),
    Exhibit(
        "fig7c", "fig7-retwis", "Figure 7(c/d) Retwis",
        "input rate (txn/s)", (100, 500, 1000, 1500), AZURE_SYSTEMS,
        partial(_rate_point, RetwisWorkload), HIGH_LOW,
    ),
    Exhibit(
        "fig7e", "fig7-smallbank", "Figure 7(e/f) SmallBank",
        "input rate (txn/s)", (500, 1000, 1500, 2000), AZURE_SYSTEMS,
        partial(_rate_point, SmallBankWorkload), HIGH_LOW,
    ),
    Exhibit(
        "fig8a", "fig8-ycsbt", "Figure 8(a) YCSB+T @50 txn/s",
        "zipf coefficient", (0.65, 0.75, 0.85, 0.95), ALL_SYSTEMS,
        partial(_zipf_point, YcsbTWorkload, 50.0), HIGH_LOW,
    ),
    Exhibit(
        "fig8b", "fig8-retwis", "Figure 8(b) Retwis @100 txn/s",
        "zipf coefficient", (0.65, 0.75, 0.85, 0.95), AZURE_SYSTEMS,
        partial(_zipf_point, RetwisWorkload, 100.0), HIGH_LOW,
    ),
    Exhibit(
        "fig9", "fig9", "Figure 9",
        "high-priority %", (10, 40, 60, 80, 100), TWOPL_AND_NATTO,
        lambda system, pct: PointSpec(
            system, pct, 350.0,
            WorkloadSpec.of(YcsbTWorkload, high_priority_fraction=pct / 100.0),
        ),
        (_high("95P latency, high-priority (YCSB+T @350 txn/s)"),),
    ),
    Exhibit(
        "fig10", "fig10", "Figure 10",
        "input rate (txn/s)", (100, 1500, 3500, 6000), TWOPL_AND_NATTO,
        lambda system, rate: PointSpec(
            system, rate, float(rate),
            WorkloadSpec.of(
                SmallBankWorkload,
                high_priority_types=frozenset({"send_payment"}),
            ),
        ),
        (
            Table(
                "high", "95P latency, sendPayment=high (SmallBank)",
                _send_payment_p95,
            ),
            Table(
                "increase", "95P latency increase vs 100 txn/s",
                _send_payment_p95, unit="%", baseline=100,
            ),
        ),
    ),
    Exhibit(
        "fig11", "fig11", "Figure 11",
        "delay variance (%)", (0.0, 5.0, 15.0, 40.0), AZURE_SYSTEMS,
        lambda system, variance: PointSpec(
            system, variance, 350.0, WorkloadSpec.of(YcsbTWorkload),
            _settings(delay_variance_cv=variance / 100.0),
        ),
        (_high(
            "95P latency, high-priority vs delay variance "
            "(YCSB+T @350 txn/s)"
        ),),
    ),
    Exhibit(
        "fig12", "fig12", "Figure 12",
        "packet loss (%)", (0.0, 1.0, 2.0, 3.0), AZURE_SYSTEMS,
        lambda system, loss: PointSpec(
            system, loss, 100.0, WorkloadSpec.of(YcsbTWorkload),
            _settings(loss=LossConfig(loss_rate=loss / 100.0)),
        ),
        (_high(
            "95P latency, high-priority vs packet loss (YCSB+T @100 txn/s)"
        ),),
    ),
    Exhibit(
        "fig13", "fig13", "Figure 13",
        "deployment", ("hybrid",), AZURE_SYSTEMS,
        lambda system, x: PointSpec(
            system, x, 1000.0, WorkloadSpec.of(RetwisWorkload),
            ExperimentSettings(
                topology_factory=hybrid_cloud_topology,
                system_config=SystemConfig().with_overrides(
                    delay_variance_cv=BASE_JITTER_CV
                ),
            ),
        ),
        (_high(
            "95P latency, high-priority, hybrid AWS+Azure "
            "(Retwis @1000 txn/s)"
        ),),
    ),
    Exhibit(
        "fig14", "fig14", "Figure 14",
        "partitions", (2, 4, 8, 12),
        (
            "2PL+2PC", "2PL+2PC(P)", "TAPIR",
            "Carousel Basic", "Carousel Fast", "Natto-RECSF",
        ),
        fig14_point,
        (
            Table(
                "throughput",
                "peak throughput vs partitions "
                "(uniform Retwis, 3-DC local cluster)",
                RepeatedResult.goodput,
                unit="txn/s",
            ),
        ),
    ),
    Exhibit(
        "abl-margin", "abl-margin", "Ablation: timestamp margin",
        "margin (ms)", (0.0, 2.0, 20.0), ("Natto-RECSF",),
        # Under mild jitter, where under-prediction bites.
        lambda system, margin: _ablation_point(
            system, margin, _settings(delay_variance_cv=0.02),
            timestamp_margin=margin / 1000.0,
        ),
        (_high(
            "95P high-priority latency "
            f"(YCSB+T @{ABLATION_RATE} txn/s, 2% delay jitter)"
        ),),
    ),
    Exhibit(
        "abl-skip-rule", "abl-skip-rule", "Ablation: PA skip rule",
        "variant", ("skip rule on", "skip rule off"), ("Natto-RECSF",),
        lambda system, variant: _ablation_point(
            system, variant, pa_skip_rule=variant == "skip rule on"
        ),
        (
            _high("95P high-priority latency"),
            _low("95P low-priority latency"),
        ),
    ),
    Exhibit(
        "abl-probes", "abl-probes", "Ablation: probe interval",
        "probe interval (ms)", (10.0, 100.0, 500.0), ("Natto-RECSF",),
        lambda system, interval: _ablation_point(
            system, interval,
            _settings(
                delay_variance_cv=0.15, probe_interval=interval / 1000.0
            ),
        ),
        (_high("95P high-priority latency (15% delay variance)"),),
    ),
)

#: Every exhibit row by its CLI name.
EXHIBITS: Dict[str, Exhibit] = {row.name: row for row in _ROWS}
