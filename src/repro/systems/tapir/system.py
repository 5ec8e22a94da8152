"""The TAPIR client protocol and system wiring.

One transaction attempt:

1. **Read round** — read keys are fetched from the *closest* replica of
   each partition (reads are unreplicated operations in IR), so reads
   can be stale; staleness is caught at validation.
2. **Prepare round** — the client sends the prepare (read versions +
   write keys) to every replica of every participant.  Per partition:
   a unanimous fast quorum (3/3 for f=1) decides immediately; mixed
   votes start the slow path at once (the paper's modification): the
   majority vote is finalized with one more round, waiting for a
   majority of acks.
3. **Outcome** — if every partition prepared, the client reports commit
   and asynchronously sends commit (with write data) to all replicas;
   any partition abort aborts the attempt everywhere and the driver
   retries.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.net.payload import (
    TapirAbort,
    TapirCommit,
    TapirFinalize,
    TapirPrepare,
    TapirRead,
)
from repro.sim import all_of
from repro.systems.base import Cluster, TransactionSystem
from repro.systems.tapir.replica import TapirReplica
from repro.txn.transaction import TransactionSpec


class _TapirGroup:
    """The replicas of one partition (no leader, no Raft)."""

    def __init__(self, system: "Tapir", placement, cluster: Cluster) -> None:
        self.placement = placement
        self.replicas: List[TapirReplica] = []
        for dc in placement.datacenters:
            name = f"tapir-p{placement.partition_id}-{dc}"
            replica = TapirReplica(
                cluster.sim,
                name,
                dc,
                clock=cluster.make_clock(name),
                service_time=cluster.config.server_service_time,
            )
            cluster.network.register(replica)
            self.replicas.append(replica)

    @property
    def replica_names(self) -> List[str]:
        return [r.name for r in self.replicas]

    def closest_replica_name(self, datacenter: str, topology) -> str:
        return min(
            self.replicas,
            key=lambda r: topology.rtt(datacenter, r.datacenter),
        ).name


class Tapir(TransactionSystem):
    """TAPIR with an immediate slow path."""

    name = "TAPIR"

    def setup(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.groups: Dict[int, _TapirGroup] = {
            placement.partition_id: _TapirGroup(self, placement, cluster)
            for placement in cluster.placements
        }

    # ------------------------------------------------------------------

    def execute(self, client, spec: TransactionSpec, attempt) -> Generator:
        aid = attempt.aid
        partitioner = self.cluster.partitioner
        topology = self.cluster.topology
        participants = sorted(
            partitioner.participants(spec.read_keys, spec.write_keys)
        )
        reads_by_pid = partitioner.group_keys(spec.read_keys)
        writes_by_pid = partitioner.group_keys(spec.write_keys)

        # Round 1: read from the closest replica of each read partition.
        read_calls = []
        read_pids = [pid for pid in participants if reads_by_pid.get(pid)]
        for pid in read_pids:
            replica = self.groups[pid].closest_replica_name(
                client.datacenter, topology
            )
            read_calls.append(
                client.network.call(
                    client, replica, "tapir_read", TapirRead(reads_by_pid[pid])
                )
            )
        read_replies = yield all_of(read_calls)
        read_values: Dict[str, str] = {}
        read_versions: Dict[str, int] = {}
        for reply in read_replies:
            for key, (value, version) in reply.values.items():
                read_values[key] = value
                read_versions[key] = version

        writes = spec.make_writes(read_values)
        if writes is None:
            return True  # voluntary abort after reads: nothing prepared

        # Round 2: prepare on every replica of every participant.
        prepare_calls = []
        call_pids = []
        for pid in participants:
            # One payload object serves every replica of the partition.
            body = TapirPrepare(
                aid,
                {k: read_versions[k] for k in reads_by_pid.get(pid, [])},
                writes_by_pid.get(pid, []),
            )
            for replica in self.groups[pid].replica_names:
                prepare_calls.append(
                    client.network.call(client, replica, "tapir_prepare", body)
                )
                call_pids.append(pid)
        replies = yield all_of(prepare_calls)

        votes_by_pid: Dict[int, List[str]] = {pid: [] for pid in participants}
        abort_reason = None
        for pid, reply in zip(call_pids, replies):
            votes_by_pid[pid].append(reply.vote)
            if reply.vote == "abort" and abort_reason is None:
                abort_reason = reply.reason

        decisions: Dict[int, str] = {}
        slow_path_pids = []
        for pid, votes in votes_by_pid.items():
            ok = votes.count("ok")
            if ok == len(votes):
                decisions[pid] = "ok"  # fast path
            elif ok * 2 > len(votes):
                decisions[pid] = "ok"
                slow_path_pids.append(pid)  # majority ok: finalize
            else:
                decisions[pid] = "abort"
        if any(d == "abort" for d in decisions.values()):
            attempt.note_abort(abort_reason)

        if slow_path_pids and all(d == "ok" for d in decisions.values()):
            # Slow path starts immediately; wait for majority acks.
            finalize_waits = []
            for pid in slow_path_pids:
                body = TapirFinalize(
                    aid,
                    "ok",
                    {k: read_versions[k] for k in reads_by_pid.get(pid, [])},
                    writes_by_pid.get(pid, []),
                )
                acks = [
                    client.network.call(client, replica, "tapir_finalize", body)
                    for replica in self.groups[pid].replica_names
                ]
                finalize_waits.append(_majority(acks))
            yield all_of(finalize_waits)

        committed = all(d == "ok" for d in decisions.values())
        outcome_method = "tapir_commit" if committed else "tapir_abort"
        for pid in participants:
            if committed:
                body = TapirCommit(
                    aid,
                    {
                        key: writes[key] for key in writes_by_pid.get(pid, [])
                        if key in writes
                    },
                )
            else:
                body = TapirAbort(aid)
            for replica in self.groups[pid].replica_names:
                client.network.send(client, replica, outcome_method, body)
        return committed


def _majority(futures):
    """A future resolving once a majority of ``futures`` resolve."""
    from repro.sim import Future

    combined = Future()
    needed = len(futures) // 2 + 1
    count = [0]

    def _on_done(_):
        count[0] += 1
        if count[0] >= needed and not combined.done:
            combined.set_result(True)

    for future in futures:
        future.add_done_callback(_on_done)
    return combined
