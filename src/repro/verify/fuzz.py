"""Protocol-invariant fuzzing: seeded workload × fault-schedule scenarios.

One *scenario* = (system family, seed).  The seed deterministically
derives a contended tagged-RMW workload and a random fault schedule
(partitions, crashes, pauses, loss bursts, delay storms, clock skew);
the scenario runs the system under both, then checks the committed
history with the serializability checker and the full invariant suite
(:mod:`repro.verify.invariants`).  Everything — including the fault
transition log and the per-transaction record stream — is fingerprinted,
so two runs of the same scenario must agree byte for byte.

A failing scenario can be **shrunk** (greedy fault-event removal to a
fixpoint) and written to a **replayable JSON artifact** holding the
materialized schedule; ``python -m repro.fuzz --replay artifact.json``
re-runs it exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults import FaultInjector, FaultSchedule, random_schedule
from repro.faults.schedule import FaultEvent
from repro.harness.experiment import deploy, run_until_settled
from repro.harness.systems import make_system
from repro.net.topology import azure_topology
from repro.obs.trace import Tracer
from repro.systems.base import SystemConfig
from repro.txn.priority import Priority
from repro.verify.fingerprint import fingerprint_records
from repro.verify.history import (
    ExecutionTrace,
    SerializabilityChecker,
    SerializationViolation,
    enable_history,
    tagged_rmw_spec,
)
from repro.verify.invariants import (
    InvariantReport,
    Violation,
    check_all,
    partition_stores,
)

#: The representative of each protocol family; variants share the same
#: mechanisms, so fuzzing one per family covers the code that can break.
FUZZ_SYSTEMS: Tuple[str, ...] = (
    "2PL+2PC",
    "TAPIR",
    "Carousel Basic",
    "Natto-RECSF",
)

_PRIORITIES = (Priority.LOW, Priority.MEDIUM, Priority.HIGH)

#: Simulated time at which a scenario is cut off if some transaction
#: still has no outcome; reaching it is reported as a liveness violation.
QUIESCENCE_CAP = 900.0


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to reproduce one scenario exactly."""

    system: str
    seed: int
    clients: Tuple[str, ...] = ("VA", "PR", "SG")
    num_keys: int = 4
    rounds: int = 3
    txns_per_client: int = 2
    round_gap: float = 0.2
    warmup: float = 2.5
    fault_horizon: float = 8.0
    #: Explicit schedule (replay/shrink); None means "derive from seed".
    schedule: Optional[FaultSchedule] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "system": self.system,
            "seed": self.seed,
            "clients": list(self.clients),
            "num_keys": self.num_keys,
            "rounds": self.rounds,
            "txns_per_client": self.txns_per_client,
            "round_gap": self.round_gap,
            "warmup": self.warmup,
            "fault_horizon": self.fault_horizon,
        }
        if self.schedule is not None:
            data["schedule"] = self.schedule.to_dict()
        return data

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ScenarioSpec":
        schedule = data.get("schedule")
        return ScenarioSpec(
            system=data["system"],
            seed=int(data["seed"]),
            clients=tuple(data.get("clients", ("VA", "PR", "SG"))),
            num_keys=int(data.get("num_keys", 4)),
            rounds=int(data.get("rounds", 3)),
            txns_per_client=int(data.get("txns_per_client", 2)),
            round_gap=float(data.get("round_gap", 0.2)),
            warmup=float(data.get("warmup", 2.5)),
            fault_horizon=float(data.get("fault_horizon", 8.0)),
            schedule=(
                FaultSchedule.from_dict(schedule) if schedule is not None else None
            ),
        )


@dataclass
class ScenarioOutcome:
    """Result of one scenario run, checker verdicts included."""

    spec: ScenarioSpec  # schedule always materialized here
    submitted: int
    committed: int
    failed: int
    report: InvariantReport
    fault_log: List[str] = field(default_factory=list)
    fault_fingerprint: str = ""
    record_fingerprint: str = ""

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def violations(self) -> List[Violation]:
        return self.report.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "submitted": self.submitted,
            "committed": self.committed,
            "failed": self.failed,
            "fault_fingerprint": self.fault_fingerprint,
            "record_fingerprint": self.record_fingerprint,
            "report": self.report.to_dict(),
        }

    def log_line(self) -> str:
        """One deterministic line per scenario for the scenario log."""
        status = "ok" if self.ok else "FAIL"
        return (
            f"{self.spec.system}\tseed={self.spec.seed}\t{status}\t"
            f"committed={self.committed}/{self.submitted}\t"
            f"faults={len(self.spec.schedule or ())}\t"
            f"fault_fp={self.fault_fingerprint[:12]}\t"
            f"record_fp={self.record_fingerprint[:12]}"
        )


# ----------------------------------------------------------------------
# Scenario execution


def _fault_targets(system) -> Tuple[List[str], List[str], List[str]]:
    """(crashable followers, pausable leaders, skewable replicas).

    Leaders are never crashed: Raft's leader is fixed (no elections, as
    in the paper's failure-free experiments), so a crashed leader is
    irreplaceable and the run degenerates to a liveness timeout.
    Leaders get pauses instead, which are liveness-safe.
    """
    followers: List[str] = []
    leaders: List[str] = []
    replicas: List[str] = []
    groups = list(system.groups.values())
    groups += list(getattr(system, "coordinators", {}).values())
    for group in groups:
        leader = getattr(group, "leader", None)
        for replica in group.replicas:
            replicas.append(replica.name)
            if leader is not None and replica is not leader:
                followers.append(replica.name)
        if leader is not None:
            leaders.append(leader.name)
    return followers, leaders, replicas


def _shift(schedule: FaultSchedule, offset: float) -> FaultSchedule:
    """Translate every event ``offset`` seconds later (past warm-up)."""
    return FaultSchedule(
        tuple(
            FaultEvent(e.kind, e.start + offset, e.duration, dict(e.params))
            for e in schedule
        )
    )


def run_scenario(spec: ScenarioSpec) -> ScenarioOutcome:
    """Build, fault, load, drain and check one scenario."""
    system = make_system(spec.system)
    # The fuzz workload is intentionally adversarial; lift the paper's
    # 100-retry budget so convergence is part of what we verify.
    cluster, clients, stats = deploy(
        system,
        azure_topology(),
        SystemConfig(delay_variance_cv=0.01),
        spec.seed,
        [(f"client-{dc}-{k}", dc) for k, dc in enumerate(spec.clients)],
        max_retries=1000,
    )

    enable_history(system)
    tracer = Tracer().attach(cluster.sim)

    followers, leaders, replicas = _fault_targets(system)
    schedule = spec.schedule
    if schedule is None:
        schedule = _shift(
            random_schedule(
                spec.seed,
                horizon=spec.fault_horizon,
                datacenters=list(cluster.topology.datacenters),
                crashable=followers,
                pausable=leaders,
                skewable=replicas,
            ),
            spec.warmup,
        )
    spec = replace(spec, schedule=schedule)
    injector = FaultInjector(
        cluster.sim, cluster.network, schedule, seed=spec.seed
    ).attach()

    cluster.sim.run(until=spec.warmup)  # probe warm-up (Natto variants)

    trace = ExecutionTrace()
    sessions: Dict[str, List[str]] = {client.name: [] for client in clients}
    workload_rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0x77)))
    keys = cluster.partitioner.representative_keys(spec.num_keys, prefix="fz")

    def burst():
        for round_number in range(spec.rounds):
            for client in clients:
                for j in range(spec.txns_per_client):
                    picked = workload_rng.choice(len(keys), size=2, replace=False)
                    txn_keys = [keys[int(p)] for p in sorted(picked)]
                    priority = _PRIORITIES[int(workload_rng.integers(0, 3))]
                    txn_id = f"s{spec.seed}-r{round_number}-{j}-{client.name}"
                    sessions[client.name].append(txn_id)
                    client.submit(
                        tagged_rmw_spec(trace, txn_id, txn_keys, priority)
                    )
            yield spec.round_gap

    cluster.sim.spawn(burst())

    submitted = len(spec.clients) * spec.rounds * spec.txns_per_client
    # Run past the last fault window and the last submission, then until
    # every transaction reached a terminal outcome, plus the settle
    # window.  No fault drops a message, only delays or holds it, so
    # quiescence is guaranteed: the cap is a harness safety net, and
    # hitting it is a violation.
    after = max(
        schedule.horizon + 2.0,
        spec.warmup + spec.rounds * spec.round_gap + 5.0,
    )
    settled = run_until_settled(
        cluster.sim, clients, after=after, cap=QUIESCENCE_CAP
    )

    report = InvariantReport()
    if not settled:
        report.violations.append(
            Violation(
                "liveness",
                f"{submitted - len(stats.records)} of {submitted} "
                f"transactions still unresolved at t={cluster.sim.now:.0f}s",
            )
        )
    committed = [r.txn_id for r in stats.records if r.committed]
    if not committed:
        report.violations.append(
            Violation("liveness", "no transaction committed")
        )
    report.extend(
        check_all(
            system,
            stats.records,
            trace,
            sessions=sessions,
            tracer=tracer,
        )
    )
    report.checks_run.append("serializability")
    try:
        SerializabilityChecker(
            partition_stores(system), trace, committed
        ).check()
    except SerializationViolation as violation:
        report.violations.append(Violation("serializability", str(violation)))

    return ScenarioOutcome(
        spec=spec,
        submitted=submitted,
        committed=len(committed),
        failed=len(stats.records) - len(committed),
        report=report,
        fault_log=injector.log_lines(),
        fault_fingerprint=injector.fingerprint(),
        record_fingerprint=fingerprint_records(stats.records),
    )


# ----------------------------------------------------------------------
# Shrinking


def shrink(
    spec: ScenarioSpec,
    max_runs: int = 64,
) -> Tuple[ScenarioSpec, ScenarioOutcome, int]:
    """Greedy one-at-a-time fault removal, looped to a fixpoint.

    Returns the minimal failing spec (schedule materialized), its
    outcome, and the number of candidate runs spent.  ``spec`` must
    already fail.  A scenario can shrink to an *empty* schedule when
    the bug does not need faults at all (the mutation smoke test's
    case) — maximally informative for debugging.
    """
    outcome = run_scenario(spec)
    if outcome.ok:
        raise ValueError("shrink() needs a failing scenario")
    best = outcome.spec  # schedule materialized by run_scenario
    best_outcome = outcome
    runs = 0
    changed = True
    while changed and runs < max_runs:
        changed = False
        index = 0
        while index < len(best.schedule) and runs < max_runs:
            candidate = replace(best, schedule=best.schedule.without(index))
            candidate_outcome = run_scenario(candidate)
            runs += 1
            if not candidate_outcome.ok:
                best = candidate_outcome.spec
                best_outcome = candidate_outcome
                changed = True
            else:
                index += 1
    return best, best_outcome, runs


# ----------------------------------------------------------------------
# Failure artifacts


def write_failure_artifact(outcome: ScenarioOutcome, path: str) -> None:
    """Persist a failing scenario as a replayable JSON artifact."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(outcome.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_artifact(path: str) -> ScenarioSpec:
    """The spec stored in a failure artifact (schedule included)."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return ScenarioSpec.from_dict(data["spec"])


def replay_artifact(path: str) -> ScenarioOutcome:
    """Re-run a failure artifact's scenario exactly."""
    return run_scenario(load_artifact(path))
