"""Natto: system wiring and the client protocol.

The client side is where Natto's multi-path read delivery comes
together.  For one attempt the client may receive, per partition:

* the read-and-prepare RPC reply (normal or conditional prepare);
* a replacement read delivery after a failed conditional prepare
  (higher epoch, via a ``reads`` event);
* an assembled RECSF pair: the participant's ``recsf_base`` values plus
  the predecessor coordinator's ``recsf_reads`` values.

The client keeps the highest-epoch value set per partition, and
(re-)sends its write data + commit request whenever it holds a complete
read set it has not submitted yet, tagging each partition with the read
epoch the writes were computed from.  The coordinator matches those
epochs against its vote records, which closes the conditional-prepare
loop safely.

The client driver's :class:`~repro.systems.client.Attempt` resolves the
decision; ``execute`` handles only the ``reads`` and ``recsf_*`` events.
Replies that land after their attempt ended (through the first refusal
or the decision; ``Attempt.ended``) are ignored, so a late reply never
starts a commit.  The deployment is Carousel Basic's, with
the Natto node classes; participants also get the variant's config and
the partitioner.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.core.config import NattoConfig
from repro.core.coordinator import NattoCoordinator
from repro.core.server import NattoParticipant
from repro.core.timestamps import TimestampAssigner
from repro.net.payload import (
    AbortRequest,
    NattoCommitRequest,
    NattoReadAndPrepare,
    Payload,
)
from repro.net.probing import ClientDelayView, ProbeProxy, ProxyDirectory
from repro.sim import Future, any_of
from repro.systems.carousel.basic import CarouselBasic
from repro.txn.transaction import TransactionSpec


class Natto(CarouselBasic):
    """The paper's system.  Pass a :class:`NattoConfig` for the variant."""

    participant_class = NattoParticipant
    coordinator_class = NattoCoordinator

    def __init__(self, config: NattoConfig = NattoConfig()) -> None:
        self.natto_config = config
        self.name = config.variant_name
        self.proxies = ProxyDirectory()
        self._assigners: Dict[str, TimestampAssigner] = {}

    # ------------------------------------------------------------------
    # Deployment

    def participant_options(self) -> Dict[str, Any]:
        return {
            "natto_config": self.natto_config,
            "partitioner": self.cluster.partitioner,
        }

    def after_setup(self) -> None:
        """One probe proxy (and client view) per datacenter (§4)."""
        cluster = self.cluster
        targets = list(self.leader_names.values())
        for dc in cluster.topology.datacenters:
            proxy = ProbeProxy(
                cluster.sim,
                cluster.network,
                dc,
                targets,
                interval=cluster.config.probe_interval,
                window=cluster.config.probe_window,
            )
            proxy.clock = cluster.make_clock(proxy.name)
            view = ClientDelayView(
                cluster.sim, proxy, cluster.config.client_view_refresh
            )
            self.proxies.add(proxy, view)
        self.proxies.start_all()
        self._leader_dcs = {
            pid: group.leader.datacenter for pid, group in self.groups.items()
        }

    def on_client_created(self, client) -> None:
        self._assigners[client.name] = TimestampAssigner(
            self.proxies.view(client.datacenter),
            self.cluster.topology,
            client.datacenter,
            margin=self.natto_config.timestamp_margin,
        )

    # ------------------------------------------------------------------
    # Client protocol

    def execute(self, client, spec: TransactionSpec, attempt) -> Generator:
        aid = attempt.aid
        partitioner = self.cluster.partitioner
        participants = self.participant_ids(spec)
        coordinator = self.coordinator_name(client.datacenter)
        reads_by_pid = partitioner.group_keys(spec.read_keys)

        assignment = self._assigners[client.name].assign(
            client.clock.now(),
            participants,
            self.leader_names,
            self._leader_dcs,
        )

        # Per-partition read state: highest-epoch full value set wins.
        state = {
            pid: {"epoch": -1, "values": None, "recsf": {}}
            for pid in participants
        }
        sent_epochs: Optional[Dict[int, int]] = None
        failed = Future()
        voluntary_abort = [False]

        def deliver(pid: int, values: Dict[str, str], epoch: int) -> None:
            slot = state[pid]
            if epoch <= slot["epoch"]:
                return
            slot["epoch"] = epoch
            slot["values"] = values
            maybe_send_commit()

        def maybe_send_commit() -> None:
            nonlocal sent_epochs
            if any(slot["values"] is None for slot in state.values()):
                return
            epochs = {pid: slot["epoch"] for pid, slot in state.items()}
            if epochs == sent_epochs:
                return
            sent_epochs = epochs
            merged: Dict[str, str] = {}
            for slot in state.values():
                merged.update(slot["values"])
            writes = spec.make_writes(merged)
            if writes is None:
                voluntary_abort[0] = True
                client.network.send(
                    client,
                    coordinator,
                    "abort_request",
                    AbortRequest(aid, client.name, participants),
                )
                return
            client.network.send(
                client,
                coordinator,
                "commit_request",
                NattoCommitRequest(
                    aid, client.name, participants, writes, epochs
                ),
            )

        def merge_recsf(pid: int, values: Dict[str, str]) -> None:
            slot = state[pid]
            slot["recsf"].update(values)
            if set(reads_by_pid.get(pid, [])) <= set(slot["recsf"]):
                deliver(pid, dict(slot["recsf"]), 0)

        def on_reply(pid: int, reply: Payload) -> None:
            if attempt.ended:
                return  # attempt over: a late reply never starts a commit
            if reply.ok:
                deliver(pid, reply.values, reply.epoch)
            else:
                attempt.note_abort(reply.reason)
                failed.try_set_result(False)

        def on_event(payload: Payload, src: str) -> None:
            kind = payload.kind
            if kind == "reads":
                deliver(payload.partition, payload.values, payload.epoch)
            elif kind in ("recsf_base", "recsf_reads"):
                merge_recsf(payload.partition, payload.values)

        attempt.on_event = on_event
        # Every participant receives the same body (full key sets); one
        # payload object serves the whole fan-out.
        request = NattoReadAndPrepare(
            aid,
            assignment.timestamp,
            int(spec.priority),
            list(spec.read_keys),
            list(spec.write_keys),
            coordinator,
            client.name,
            participants,
            assignment.arrival_estimates,
            assignment.max_owd,
        )
        for pid in participants:
            future = client.network.call(
                client,
                self.leader_names[pid],
                "read_and_prepare",
                request,
            )
            future.add_done_callback(
                lambda f, pid=pid: on_reply(pid, f.value)
            )
        decision = attempt.decision
        result = yield any_of([decision, failed])
        if voluntary_abort[0]:
            if not decision.done:
                yield decision
            result = True
        return bool(result)
