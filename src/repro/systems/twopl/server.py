"""The 2PL+2PC participant leader.

Handles the two phases the client drives:

* ``lock_read`` — acquire this partition's locks (shared for read-only
  keys, exclusive for write keys) through the lock table; the RPC reply
  is deferred until the locks are granted, then carries the read
  values.  While a request waits, the wounding policy is consulted for
  every blocker; wound verdicts are sent to the victim's client.
* ``twopl_prepare`` — the write data arrives, the prepare record (with
  the writes) is replicated, then a yes-vote goes to the coordinator.
* ``commit_txn`` — commit: replicate the commit record, then apply the
  writes stashed at prepare time and release the locks.  Abort: release
  immediately.

Followers stash writes when the ``prepare`` log entry applies and
install them when the ``commit`` entry applies, so all replicas
converge in log order.

The store, the partition id, the traced refusal and the no-vote come
from :class:`~repro.systems.base.RaftParticipant`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from repro.net.payload import (
    LockRead,
    Payload,
    ReadOk,
    Refusal,
    ReleaseLocks,
    TwoPLPrepare,
    Vote,
    WoundEvent,
)
from repro.obs.abort import AbortReason
from repro.sim import Future
from repro.store.locks import LockMode, LockRequest, LockTable
from repro.systems.base import RaftParticipant
from repro.systems.twopl.policy import BlockerInfo, WoundWaitPolicy
from repro.txn.priority import Priority


class TwoPLParticipant(RaftParticipant):
    """Leader (and follower) replica of one partition."""

    def __init__(self, *args: Any,
                 policy: Optional[WoundWaitPolicy] = None, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.policy = policy or WoundWaitPolicy()
        self.locks = LockTable(
            on_blocked=self._on_blocked, order_key=self.policy.order_key
        )
        #: txn -> {client, coordinator, reply future, ...}
        self.txn_meta: Dict[str, dict] = {}
        #: writes stashed at prepare, installed at commit (all replicas).
        self.pending_writes: Dict[str, Dict[str, str]] = {}
        self.wounds_sent = 0
        self._wounded: Set[str] = set()

    # ------------------------------------------------------------------
    # Phase 1: locks + reads

    def handle_lock_read(self, payload: LockRead, src: str) -> Future:
        txn = payload.txn
        reads = payload.reads
        writes = payload.writes
        key_modes = {key: LockMode.SHARED for key in reads}
        key_modes.update({key: LockMode.EXCLUSIVE for key in writes})
        reply: Future = Future()
        self.txn_meta[txn] = {
            "client": payload.client,
            "coordinator": payload.coordinator,
            "participants": payload.participants,
            "timestamp": payload.ts,
            "priority": Priority(payload.priority),
            "reads": reads,
            "reply": reply,
        }
        tracer = self.sim.tracer
        if tracer is not None:
            self.txn_meta[txn]["lock_span"] = tracer.span(
                "lock_wait", node=self.name, txn=txn
            )
        request = LockRequest(
            txn_id=txn,
            key_modes=key_modes,
            timestamp=payload.ts,
            priority=int(payload.priority),
        )
        request.future.add_done_callback(lambda _: self._locks_granted(txn))
        self.locks.request(request)
        return reply

    def _locks_granted(self, txn: str) -> None:
        meta = self.txn_meta.get(txn)
        if meta is None:
            return  # released (wounded) before the grant landed
        span = meta.pop("lock_span", None)
        if span is not None:
            span.finish()
        values = {key: self.store.read(key).value for key in meta["reads"]}
        if not meta["reply"].done:
            meta["reply"].set_result(ReadOk(values))

    # ------------------------------------------------------------------
    # Wounding

    def _on_blocked(self, txn: str, key: str, blockers: Set[str]) -> None:
        request = self.locks.request_of(txn)
        if request is None:
            return
        infos = []
        for blocker in blockers:
            meta = self.txn_meta.get(blocker)
            if meta is None or blocker in self._wounded:
                continue
            infos.append(
                BlockerInfo(blocker, meta["timestamp"], meta["priority"])
            )
        tracer = self.sim.tracer
        for victim in self.policy.victims(request, infos, self.locks):
            self._wounded.add(victim)
            self.wounds_sent += 1
            if tracer is not None:
                tracer.event(
                    "wound",
                    node=self.name,
                    txn=victim,
                    by=txn,
                    reason=str(AbortReason.PREEMPTED),
                )
            victim_meta = self.txn_meta[victim]
            self._network.send(
                self,
                victim_meta["client"],
                "txn_event",
                WoundEvent(victim, txn),
            )

    def handle_release_locks(self, payload: ReleaseLocks, src: str) -> None:
        """Victim client gave up this attempt; free everything here."""
        txn = payload.txn
        meta = self.txn_meta.pop(txn, None)
        if meta is not None:
            span = meta.pop("lock_span", None)
            if span is not None:
                span.set(outcome="released")
                span.finish()
            if not meta["reply"].done:
                meta["reply"].set_result(
                    Refusal(str(AbortReason.PREEMPTED))
                )
        self._wounded.discard(txn)
        self.pending_writes.pop(txn, None)
        self.locks.release(txn)

    # ------------------------------------------------------------------
    # Phase 2: 2PC

    def handle_twopl_prepare(self, payload: TwoPLPrepare, src: str) -> None:
        txn = payload.txn
        meta = self.txn_meta.get(txn)
        if meta is None:
            # The transaction released (wound raced the prepare); tell
            # the coordinator no so the attempt aborts cleanly.  The
            # prepare is one-way, so the refusal is only traced.
            self._refusal(txn, AbortReason.PREEMPTED)
            self._vote_no(payload, AbortReason.PREEMPTED)
            return
        self.propose(("prepare", txn, payload.writes)).add_done_callback(
            lambda _: self._network.send(
                self,
                meta["coordinator"],
                "vote",
                Vote(
                    txn,
                    self.partition_id,
                    "yes",
                    meta["participants"],
                    meta["client"],
                ),
            )
        )

    def handle_commit_txn(self, payload: Payload, src: str) -> None:
        txn = payload.txn
        if not payload.decision:
            self.handle_release_locks(ReleaseLocks(txn), src)
            return
        self.propose(("commit", txn)).add_done_callback(
            lambda _: self._finish_commit(txn)
        )

    def _finish_commit(self, txn: str) -> None:
        # Writes were installed by on_apply("commit"); drop bookkeeping.
        self.txn_meta.pop(txn, None)
        self._wounded.discard(txn)
        self.locks.release(txn)

    # ------------------------------------------------------------------
    # Replicated state machine

    def on_apply(self, payload: Any, index: int) -> None:
        kind = payload[0]
        if kind == "prepare":
            _, txn, writes = payload
            self.pending_writes[txn] = writes
        elif kind == "commit":
            _, txn = payload
            writes = self.pending_writes.pop(txn, {})
            self.store.apply_writes(writes, txn)
