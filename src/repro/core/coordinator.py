"""Natto's 2PC coordinator: conditional votes, read epochs, RECSF.

Extensions over the Carousel coordinator, whose commit-request handler
it uses unchanged (the request's read epochs land in
``CoordinatedTxn.write_epochs``; a re-sent request after a failed
condition bumps ``writes_version``):

* **Vote records** carry an epoch (which read delivery the vote belongs
  to) and an optional condition (the low-priority transactions whose
  abort the vote is contingent on).  A transaction commits only when
  every participant's vote is *firm* and its epoch matches the epoch of
  the reads the client's write data was computed from — the invariant
  §3.3.2 states: "it cannot commit the high-priority transaction based
  on the conditional prepare result if the condition is not satisfied."
* **Condition resolution**: participants report success (upgrade the
  conditional vote to firm) or failure (the vote is discarded; a fresh
  normal-path vote with a higher epoch will follow).
* **RECSF serving**: participants forward a blocked high-priority
  transaction's reads of this coordinator's transaction's write keys;
  once that transaction commits here, the values go straight to the
  blocked transaction's client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.net.payload import (
    ConditionResolved,
    PartitionValuesEvent,
    Payload,
    RecsfForward,
)
from repro.systems.carousel.coordinator import (
    CarouselCoordinator,
    CoordinatedTxn,
)


@dataclass
class NattoVote:
    """One participant's yes-vote."""

    #: The read delivery the vote belongs to.
    epoch: int
    #: False while the vote is conditional on low-priority aborts.
    firm: bool


class NattoCoordinator(CarouselCoordinator):
    """Per-datacenter coordinator with Natto's vote state machine."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: txn -> queued RECSF forwards awaiting this txn's commit.
        self._recsf_waiters: Dict[str, List[RecsfForward]] = {}

    # ------------------------------------------------------------------
    # Votes

    def _yes_vote(self, payload: Payload) -> NattoVote:
        return NattoVote(payload.epoch, not payload.conditional)

    def handle_condition_resolved(
        self, payload: ConditionResolved, src: str
    ) -> None:
        state = self.txn_state(payload.txn)
        if state.decided is not None:
            return
        vote = state.votes.get(payload.partition)
        if vote is None or vote.firm:
            return
        if payload.ok:
            if vote.epoch == payload.epoch:
                vote.firm = True
                self._try_decide(state)
        else:
            # Discard the conditional result; the participant's normal
            # path will vote again with a higher epoch.
            del state.votes[payload.partition]

    def _vote_ready(self, state: CoordinatedTxn, partition: int) -> bool:
        vote = state.votes.get(partition)
        if vote is None or not vote.firm:
            return False
        return vote.epoch == state.write_epochs.get(partition, 0)

    # ------------------------------------------------------------------
    # RECSF

    def handle_recsf_forward(self, payload: RecsfForward, src: str) -> None:
        state = self.txns.get(payload.txn)
        if state is not None and state.decided is True:
            self._serve_recsf(state, payload)
            return
        if state is not None and state.decided is False:
            return  # the blocker aborted; the normal path will serve
        self._recsf_waiters.setdefault(payload.txn, []).append(payload)

    def _on_decided(self, state: CoordinatedTxn) -> None:
        waiters = self._recsf_waiters.pop(state.txn, [])
        if state.decided:
            for payload in waiters:
                self._serve_recsf(state, payload)

    def _serve_recsf(
        self, state: CoordinatedTxn, payload: RecsfForward
    ) -> None:
        writes = state.writes or {}
        values = {
            key: writes[key] for key in payload.keys if key in writes
        }
        if not values:
            return
        self._network.send(
            self,
            payload.reader_client,
            "txn_event",
            PartitionValuesEvent(
                payload.reader, "recsf_reads", payload.partition, values
            ),
        )
