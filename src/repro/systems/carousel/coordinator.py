"""The 2PC coordinator, co-located with the client's datacenter.

In Carousel the coordinator is the leader of its own replica group, so
a transaction's write data and commit decision are fault-tolerant
before the client is told "committed".  The coordinator:

* receives the client's write data + commit request, replicates the
  write data to its followers (one handler serves every system's
  request: Carousel Fast's adds the fast-path flag, Natto's the read
  epochs and re-sends after a failed condition, so only the latest
  request's replication may let the transaction decide);
* collects per-participant votes (any *no* aborts immediately);
* decides once every participant voted yes **and** the write data is
  replicated;
* notifies the client and asynchronously fans out ``commit_txn`` (with
  each participant's slice of the write data) to participant leaders.

Natto's coordinator subclass extends the vote state machine with
conditional votes and serves RECSF read forwards; the hook points here
(``_yes_vote``, ``_vote_ready``, ``_on_decided``) exist for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cluster.partition import Partitioner
from repro.net.payload import (
    AbortRequest,
    CommitTxn,
    CommitTxnReason,
    DecisionEvent,
    DecisionEventReason,
    Payload,
)
from repro.net.probing import ProbeTargetMixin
from repro.obs.abort import AbortReason, reason_value
from repro.raft.node import RaftReplica


@dataclass
class CoordinatedTxn:
    """Coordinator-side state of one transaction attempt."""

    txn: str
    client: Optional[str] = None
    participants: Optional[List[int]] = None
    #: partition -> the record of its yes-vote (see ``_yes_vote``).
    votes: Dict[int, Any] = field(default_factory=dict)
    writes: Optional[Dict[str, str]] = None
    #: partition -> the read epoch the client's write data was computed
    #: from (Natto); a re-sent commit request overwrites it.
    write_epochs: Dict[int, int] = field(default_factory=dict)
    #: Bumped per commit request; only the latest write data's
    #: replication may let the transaction decide.
    writes_version: int = 0
    writes_replicated: bool = False
    skip_prepare_wait: bool = False  # Carousel Fast's unanimous fast path
    decided: Optional[bool] = None
    #: Why the abort decision was taken (AbortReason value), if aborted.
    abort_reason: Optional[str] = None


class CarouselCoordinator(ProbeTargetMixin, RaftReplica):
    """Leader (and follower) replica of one per-datacenter coordinator
    group."""

    def __init__(
        self,
        *args: Any,
        partitioner: Optional[Partitioner] = None,
        leader_names: Optional[Dict[int, str]] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.partitioner = partitioner
        self.leader_names = leader_names or {}
        self.txns: Dict[str, CoordinatedTxn] = {}

    def txn_state(self, txn: str) -> CoordinatedTxn:
        state = self.txns.get(txn)
        if state is None:
            state = CoordinatedTxn(txn)
            self.txns[txn] = state
        return state

    # ------------------------------------------------------------------
    # Client messages

    def handle_commit_request(self, payload: Payload, src: str) -> None:
        state = self.txn_state(payload.txn)
        state.client = payload.client
        state.participants = payload.participants
        state.writes = payload.writes
        state.write_epochs = payload.epochs
        state.skip_prepare_wait = payload.fast_path
        if state.decided is not None:
            # Already aborted by an early no-vote; the client has been
            # (or is being) notified via the decision event.
            return
        state.writes_version += 1
        version = state.writes_version
        state.writes_replicated = False
        self.propose(("writedata", state.txn, state.writes)).add_done_callback(
            lambda _: self._writes_durable(state, version)
        )

    def handle_abort_request(self, payload: AbortRequest, src: str) -> None:
        """Client-initiated abort (2FI permits aborting after reads)."""
        state = self.txn_state(payload.txn)
        state.client = payload.client
        state.participants = payload.participants
        if state.decided is None:
            state.abort_reason = str(AbortReason.VOLUNTARY)
            self._decide(state, False)

    def _writes_durable(self, state: CoordinatedTxn, version: int) -> None:
        if state.writes_version == version:
            state.writes_replicated = True
            self._try_decide(state)

    # ------------------------------------------------------------------
    # Participant votes

    def handle_vote(self, payload: Payload, src: str) -> None:
        state = self.txn_state(payload.txn)
        if state.client is None:
            state.client = payload.client
        if state.participants is None:
            state.participants = payload.participants
        if state.decided is not None:
            return
        if payload.vote == "no":
            state.abort_reason = payload.reason
            self._decide(state, False)
            return
        state.votes[payload.partition] = self._yes_vote(payload)
        self._try_decide(state)

    def _yes_vote(self, payload: Payload) -> Any:
        """The record of a yes-vote.  (Natto's adds the vote's epoch and
        whether it is conditional.)"""
        return "yes"

    def _vote_ready(self, state: CoordinatedTxn, partition: int) -> bool:
        """Is this participant's vote final and positive?  (Natto's
        conditional prepare overrides this.)"""
        return state.votes.get(partition) == "yes"

    def _try_decide(self, state: CoordinatedTxn) -> None:
        if state.decided is not None or state.writes is None:
            return
        if not state.writes_replicated:
            return
        if not state.skip_prepare_wait:
            assert state.participants is not None
            if not all(
                self._vote_ready(state, pid) for pid in state.participants
            ):
                return
        self._decide(state, True)

    # ------------------------------------------------------------------
    # Decision fan-out

    def _decide(self, state: CoordinatedTxn, committed: bool) -> None:
        state.decided = committed
        tracer = self.sim.tracer
        if tracer is not None and not committed:
            tracer.event(
                "decision_abort",
                node=self.name,
                txn=state.txn,
                reason=reason_value(state.abort_reason),
            )
        reason = state.abort_reason
        if state.client is not None:
            if not committed and reason is not None:
                event = DecisionEventReason(state.txn, committed, reason)
            else:
                event = DecisionEvent(state.txn, committed)
            self._network.send(self, state.client, "txn_event", event)
        writes = state.writes or {}
        by_partition = (
            self.partitioner.group_keys(writes) if self.partitioner else {}
        )
        if committed:
            for pid in state.participants or []:
                slice_writes = {
                    key: writes[key] for key in by_partition.get(pid, [])
                }
                self._network.send(
                    self,
                    self.leader_names[pid],
                    "commit_txn",
                    CommitTxn(state.txn, True, slice_writes),
                )
        else:
            # Abort outcomes are identical per participant: one payload
            # object serves the whole fan-out.
            outcome = (
                CommitTxnReason(state.txn, False, None, reason)
                if reason is not None
                else CommitTxn(state.txn, False, None)
            )
            for pid in state.participants or []:
                self._network.send(
                    self, self.leader_names[pid], "commit_txn", outcome
                )
        self._on_decided(state)

    def _on_decided(self, state: CoordinatedTxn) -> None:
        """Hook for subclasses (Natto serves queued RECSF reads here)."""
