"""The Natto participant leader (§3.2–§3.4).

Life of a transaction at one participant:

1. **Arrival.**  The read-and-prepare request carries the transaction
   timestamp (arrival at the *furthest* participant), the full read and
   write key sets, per-participant arrival estimates and the client's
   dominating one-way-delay estimate.  Late arrivals that would violate
   timestamp order with an ongoing conflicting transaction abort here.
   With PA on, arrival may also priority-abort queued low-priority
   transactions (or the arriving one).

2. **Buffering.**  The transaction waits in the timestamp-ordered queue
   until the server's clock passes its timestamp and it reaches the
   queue head.  This buffering is what creates the abort window PA
   exploits.

3. **Dispatch.**  Low priority: Carousel OCC — conflict with anything
   prepared (or with an earlier waiting high-priority transaction)
   aborts; otherwise prepare, serve reads, replicate, vote.  High
   priority: lock-style — if the keys are free, prepare; otherwise wait
   in timestamp order.  A blocked high-priority transaction may be
   **conditionally prepared** (CP) past prepared low-priority blockers
   predicted to be priority-aborted elsewhere, and may have its reads
   **forwarded** (RECSF) to the blockers' coordinators.

4. **Outcome.**  Commit with LECSF: the writes become visible and the
   marks release the moment the commit message arrives (replication to
   followers continues in the background).  Without LECSF: Carousel's
   behaviour — replicate first, then apply and release.  Either way,
   releasing drains the waiting list in timestamp order and resolves
   any conditions hanging off the transaction.

An attempt leaves the participant through one method, :meth:`_retire`,
whatever ended it (a priority abort, an OCC abort at dispatch, or the
coordinator's outcome): its state names the structures that hold it.
Conditional prepare and RECSF act on the same blockers, found by one
rule, :meth:`_prepared_blockers`.

The store, the partition id, abort tombstones, the traced refusal and
the no-vote come from :class:`~repro.systems.base.RaftParticipant`.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.cluster.partition import Partitioner
from repro.core.config import NattoConfig
from repro.net.payload import (
    ConditionResolved,
    NattoReadAndPrepare,
    NattoVoteYes,
    PartitionValuesEvent,
    Payload,
    ReadOkEpoch,
    ReadsEvent,
    RecsfForward,
    Refusal,
)
from repro.obs.abort import AbortReason, reason_value
from repro.sim import Future
from repro.store.occ import PreparedSet, sets_conflict
from repro.systems.base import RaftParticipant
from repro.txn.priority import Priority

#: Margin (seconds) added to completion-time estimates used by the PA
#: skip rule and CP predictions: covers prepare replication + decision
#: fan-out beyond the pure client<->participant round trip.
COMPLETION_MARGIN = 0.05

#: Sort key for the timestamp-ordered queue (see ``NattoTxn.order``).
_queue_order = attrgetter("order")


@dataclass(eq=False)
class NattoTxn:
    """Server-side state of one transaction attempt.

    Compared by identity: an attempt is one object from arrival to
    retirement, so list removal and membership need no field walk.
    """

    request: NattoReadAndPrepare
    priority: Priority
    reads: List[str]           # this partition's slice
    writes: List[str]          # this partition's slice
    reply: Future
    #: queued|dispatched|waiting|cond|prepared|done; "dispatched" lasts
    #: only while ``_dispatch`` judges an attempt popped off the queue.
    state: str = "queued"
    epoch: int = 0
    condition: Set[str] = field(default_factory=set)
    # Trace spans for this attempt's server-side phases (None when
    # tracing is off).
    queue_span: Any = None
    prepared_span: Any = None

    @property
    def txn(self) -> str:
        return self.request.txn

    @property
    def ts(self) -> float:
        return self.request.ts

    @property
    def order(self) -> Tuple[float, str]:
        return (self.request.ts, self.request.txn)

    @property
    def uses_locking(self) -> bool:
        """Everything above the lowest level prepares with locks."""
        return self.priority.uses_locking

    def conflicts_with(self, other: "NattoTxn") -> bool:
        return sets_conflict(self.reads, self.writes, other.reads, other.writes)

    def estimated_completion_time(self) -> float:
        """When this transaction should be done, if it executes at its
        timestamp: one more round trip (results to client, commit back)
        plus replication margin."""
        return self.ts + 2.0 * self.request.max_owd + COMPLETION_MARGIN


class _ConflictIndex:
    """key -> live transactions touching the key (either access mode).

    Conflicting transactions necessarily share a key, so the union of
    the per-key buckets for a transaction's own keys is a superset of
    its true conflict set; ``conflicts_with`` stays the only judge.
    The arrival/dispatch scans filter these candidates instead of
    walking (copies of) the whole queue and waiting list.

    Buckets are ``txn -> NattoTxn`` dicts: O(1) add/remove, and
    insertion-ordered, so candidates come out in a seed-independent
    order (a set of attempts would iterate in address order).
    """

    __slots__ = ("_by_key",)

    def __init__(self) -> None:
        self._by_key: Dict[str, Dict[str, NattoTxn]] = {}

    def add(self, info: "NattoTxn") -> None:
        by_key = self._by_key
        for keys in (info.reads, info.writes):
            for key in keys:
                bucket = by_key.get(key)
                if bucket is None:
                    bucket = by_key[key] = {}
                bucket[info.txn] = info

    def remove(self, info: "NattoTxn") -> None:
        by_key = self._by_key
        for keys in (info.reads, info.writes):
            for key in keys:
                bucket = by_key.get(key)
                if bucket is not None:
                    bucket.pop(info.txn, None)
                    if not bucket:
                        del by_key[key]

    def candidates(self, info: "NattoTxn") -> Iterable["NattoTxn"]:
        """Every live transaction sharing a key with ``info`` (possibly
        including ``info`` itself), deduplicated."""
        by_key = self._by_key
        found: Dict[str, NattoTxn] = {}
        for keys in (info.reads, info.writes):
            for key in keys:
                bucket = by_key.get(key)
                if bucket:
                    found.update(bucket)
        return found.values()


class NattoParticipant(RaftParticipant):
    """Leader (and follower) replica of one Natto data partition."""

    def __init__(
        self,
        *args: Any,
        natto_config: NattoConfig = NattoConfig(),
        partitioner: Optional[Partitioner] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.natto = natto_config
        self.partitioner = partitioner
        self.prepared = PreparedSet()
        self.txns: Dict[str, NattoTxn] = {}
        self.queue: List[NattoTxn] = []
        self.waiting: List[NattoTxn] = []
        #: conflict candidates for every transaction in ``txns``
        #: (queued, waiting, conditional or prepared).
        self._index = _ConflictIndex()
        #: blocker txn -> conditioned high-priority txns (CP bookkeeping)
        self._conditions: Dict[str, Set[str]] = {}
        #: LECSF: writes applied before their log entry (dedup at apply)
        self._applied_early: Set[str] = set()
        self._dispatch_timer = None
        # Counters (tests, reports, ablations).
        self.stats = {
            "prepares": 0,
            "occ_aborts": 0,
            "late_aborts": 0,
            "priority_aborts": 0,
            "conditional_prepares": 0,
            "conditions_ok": 0,
            "conditions_failed": 0,
            "recsf_forwards": 0,
        }

    # ------------------------------------------------------------------
    # Arrival

    def handle_read_and_prepare(
        self, payload: NattoReadAndPrepare, src: str
    ) -> Future:
        if payload.txn in self._abort_tombstones:
            reply = Future()
            reply.set_result(self._tombstone_refusal(payload.txn))
            return reply
        self._rap_seen.add(payload.txn)
        pid = self.partition_id
        slices = self.partitioner.group_keys
        info = NattoTxn(
            request=payload,
            priority=Priority(payload.priority),
            reads=slices(payload.full_reads).get(pid, []),
            writes=slices(payload.full_writes).get(pid, []),
            reply=Future(),
        )
        if self._late_violation(info):
            self.stats["late_aborts"] += 1
            self._refuse(info, AbortReason.TIMESTAMP_MISS)
            return info.reply
        if self.natto.pa and self._priority_abort_on_arrival(info):
            return info.reply
        self.txns[info.txn] = info
        self._index.add(info)
        self._enqueue(info)
        return info.reply

    def _late_violation(self, info: NattoTxn) -> bool:
        """§3.2: abort a late arrival only if it breaks timestamp order
        with a conflicting ongoing transaction."""
        if self.clock.now() <= info.ts:
            return False
        order = info.order
        if info.uses_locking:
            # Conflict with any ongoing (prepared, waiting or queued)
            # smaller-timestamp transaction forces an abort: the other
            # servers may already have ordered past us.
            return any(
                other.order < order and info.conflicts_with(other)
                for other in self._index.candidates(info)
            )
        # Lowest priority (OCC): order is violated if a conflicting
        # *larger*-timestamp transaction was already dispatched
        # (waiting, conditional or prepared — queued ones have not).
        return any(
            other.state != "queued"
            and other.order > order
            and info.conflicts_with(other)
            for other in self._index.candidates(info)
        )

    def _refuse(self, info: NattoTxn, reason) -> None:
        """Abort before (or instead of) preparing: fail the client's
        read reply and vote no so the coordinator cleans up."""
        refusal = self._refusal(info.txn, reason)
        if not info.reply.done:
            info.reply.set_result(refusal)
        self._vote_no(info.request, reason)

    # ------------------------------------------------------------------
    # Priority abort (§3.3.1)

    def _priority_abort_on_arrival(self, info: NattoTxn) -> bool:
        """Apply PA rules at arrival, relationally over priority levels.
        Returns True if *info itself* was aborted (arriving behind a
        queued strictly-higher-priority transaction)."""
        candidates = list(self._index.candidates(info))
        # Evict queued strictly-lower-priority conflicts ordered before
        # us — in queue (timestamp) order, as a queue walk would visit
        # them, so the abort messages leave in the same sequence.
        victims = [
            queued
            for queued in candidates
            if queued.state == "queued"
            and queued.priority < info.priority
            and queued.order < info.order
            and info.conflicts_with(queued)
            and not self._completes_in_time(queued, info)
        ]
        if victims:
            victims.sort(key=_queue_order)
            for queued in victims:
                self._priority_abort(queued, by=info)
        # Yield to strictly-higher-priority conflicts ordered after us
        # that are still queued or waiting (prepared ones do not wound).
        for other in candidates:
            if (
                other.state in ("queued", "waiting", "cond")
                and other.priority > info.priority
                and other.order > info.order
                and info.conflicts_with(other)
                and not self._completes_in_time(info, other)
            ):
                self.stats["priority_aborts"] += 1
                self._trace_priority_abort(info, other)
                self._refuse(info, AbortReason.PREEMPTED)
                return True
        return False

    def _completes_in_time(self, low: NattoTxn, high: NattoTxn) -> bool:
        """PA's skip rule: don't abort a lower-priority transaction that
        should complete before the higher-priority execution time.
        Disabled by the ``pa_skip_rule`` ablation knob."""
        if not self.natto.pa_skip_rule:
            return False
        return high.ts > low.estimated_completion_time()

    def _priority_abort(self, low: NattoTxn, by: NattoTxn) -> None:
        """Evict a queued lower-priority attempt.  The dispatch timer is
        not re-armed: armed for an evicted head it fires early at worst,
        and ``_dispatch_due`` dispatches only what is due."""
        self.stats["priority_aborts"] += 1
        if low.queue_span is not None:
            low.queue_span.set(outcome="preempted")
        self._retire(low)
        self._trace_priority_abort(low, by)
        self._refuse(low, AbortReason.PREEMPTED)

    def _trace_priority_abort(self, victim: NattoTxn, winner: NattoTxn) -> None:
        """Record who wounded whom (and at which priorities).

        The priority-ordering invariant checker consumes these events:
        a priority abort whose winner does not outrank its victim is a
        protocol bug, not a tuning artifact.
        """
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.event(
                "priority_abort",
                node=self.name,
                txn=victim.txn,
                by=winner.txn,
                victim_priority=int(victim.priority),
                winner_priority=int(winner.priority),
            )

    # ------------------------------------------------------------------
    # Queue and dispatch

    def _enqueue(self, info: NattoTxn) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            info.queue_span = tracer.span(
                "queue", node=self.name, txn=info.txn
            )
        # The queue is kept sorted by (ts, txn); a binary insertion is
        # O(log n) key calls where the old append+sort was O(n).  ``ts``
        # is fixed at construction, so the invariant can't rot, and
        # insort_right matches the stable sort's placement of ties.
        insort(self.queue, info, key=_queue_order)
        self._schedule_dispatch()

    def _schedule_dispatch(self) -> None:
        if self._dispatch_timer is not None:
            self._dispatch_timer.cancel()
            self._dispatch_timer = None
        if not self.queue:
            return
        delay = self.clock.until(self.queue[0].ts)
        self._dispatch_timer = self.sim.schedule(delay, self._dispatch_due)

    def _dispatch_due(self) -> None:
        self._dispatch_timer = None
        while self.queue and self.clock.now() >= self.queue[0].ts:
            self._dispatch(self.queue.pop(0))
        self._schedule_dispatch()

    def _dispatch(self, info: NattoTxn) -> None:
        """Judge an attempt the caller has popped off the queue."""
        info.state = "dispatched"
        if info.queue_span is not None:
            info.queue_span.finish()
            info.queue_span = None
        if not info.uses_locking:
            blocked = not self.prepared.is_free(info.reads, info.writes)
            blocked = blocked or any(
                w.state == "waiting" and info.conflicts_with(w)
                for w in self._index.candidates(info)
            )
            if blocked:
                self.stats["occ_aborts"] += 1
                self._retire(info)
                self._refuse(info, AbortReason.OCC_CONFLICT)
                return
            self._prepare(info)
            return
        info.state = "waiting"
        self.waiting.append(info)
        self._drain_waiting()
        if info.state != "waiting" or not (self.natto.cp or self.natto.recsf):
            return
        blockers = self._prepared_blockers(info)
        if blockers is None:
            return
        if self.natto.cp and self._try_conditional_prepare(info, blockers):
            return
        if self.natto.recsf:
            self._recsf_forward(info, blockers)

    def _drain_waiting(self) -> None:
        """Prepare waiting high-priority transactions in timestamp order;
        a still-blocked earlier waiter's keys stay claimed so later
        waiters cannot jump it.  The list is rebuilt in one pass —
        preparing never re-enters this method (replication and read
        delivery are asynchronous), so no copy is needed and released
        entries cost O(1) instead of an O(n) ``remove`` each."""
        claimed: List[Tuple[List[str], List[str]]] = []
        kept: List[NattoTxn] = []
        for info in self.waiting:
            if info.state == "cond":
                kept.append(info)
                continue  # resolved via its condition, not via draining
            blockers = self.prepared.conflicting(info.reads, info.writes)
            blockers.discard(info.txn)
            blocked_by_earlier = any(
                sets_conflict(info.reads, info.writes, reads, writes)
                for reads, writes in claimed
            )
            if blockers or blocked_by_earlier:
                claimed.append((info.reads, info.writes))
                kept.append(info)
                continue
            # Preparing here (not after the loop) keeps the released
            # transaction's marks visible to later waiters in this pass.
            self._prepare(info)
        self.waiting = kept

    # ------------------------------------------------------------------
    # Prepare paths

    def _prepare(self, info: NattoTxn) -> None:
        self.stats["prepares"] += 1
        self.prepared.add(info.txn, info.reads, info.writes)
        info.state = "prepared"
        tracer = self.sim.tracer
        if tracer is not None and info.prepared_span is None:
            info.prepared_span = tracer.span(
                "prepared", node=self.name, txn=info.txn
            )
        self._deliver_reads(info)
        self.propose(("prepare", info.txn)).add_done_callback(
            lambda _: self._vote_yes(info, conditional=None)
        )

    def _deliver_reads(self, info: NattoTxn) -> None:
        values = {key: self.store.read(key).value for key in info.reads}
        if not info.reply.done:
            info.reply.set_result(ReadOkEpoch(values, info.epoch))
        else:
            self._network.send(
                self,
                info.request.client,
                "txn_event",
                ReadsEvent(
                    info.txn, self.partition_id, values, info.epoch
                ),
            )

    def _vote_yes(self, info: NattoTxn, conditional) -> None:
        self._network.send(
            self,
            info.request.coordinator,
            "vote",
            NattoVoteYes(
                info.txn,
                self.partition_id,
                "yes",
                info.epoch,
                conditional,
                info.request.participants,
                info.request.client,
            ),
        )

    def _prepared_blockers(self, info: NattoTxn) -> Optional[List[NattoTxn]]:
        """The prepared attempts blocking a waiting ``info``, sorted by
        id, when CP and RECSF may act on them; otherwise None.

        They may not when nothing blocks ``info``, when a blocker is
        only conditionally prepared, or when an earlier waiting attempt
        conflicts with ``info``: that one writes before ``info``
        prepares, so values read now would not match the normal path.
        """
        blocker_ids = self.prepared.conflicting(info.reads, info.writes)
        blocker_ids.discard(info.txn)
        if not blocker_ids:
            return None
        blockers = []
        # Sorted: each blocker may get a message, and set order follows
        # the string hash seed.
        for txn_id in sorted(blocker_ids):
            blocker = self.txns.get(txn_id)
            if blocker is None or blocker.state != "prepared":
                return None
            blockers.append(blocker)
        for other in self._index.candidates(info):
            if (
                other is not info
                and other.state in ("waiting", "cond")
                and other.order < info.order
                and info.conflicts_with(other)
            ):
                return None
        return blockers

    # ------------------------------------------------------------------
    # Conditional prepare (§3.3.2)

    def _try_conditional_prepare(
        self, info: NattoTxn, blockers: List[NattoTxn]
    ) -> bool:
        if not all(
            self._predicts_remote_priority_abort(info, blocker)
            for blocker in blockers
        ):
            return False
        self.stats["conditional_prepares"] += 1
        self.prepared.add(info.txn, info.reads, info.writes)
        info.state = "cond"
        tracer = self.sim.tracer
        if tracer is not None and info.prepared_span is None:
            info.prepared_span = tracer.span(
                "prepared", node=self.name, txn=info.txn, conditional=True
            )
        info.condition = {b.txn for b in blockers}
        for blocker in blockers:
            self._conditions.setdefault(blocker.txn, set()).add(info.txn)
        self._deliver_reads(info)
        self.propose(("cond_prepare", info.txn)).add_done_callback(
            lambda _: self._vote_yes(info, conditional=sorted(info.condition))
        )
        return True

    def _predicts_remote_priority_abort(
        self, high: NattoTxn, low: NattoTxn
    ) -> bool:
        """Would another participant priority-abort ``low`` because of
        ``high``?  Uses the piggybacked key sets and arrival estimates."""
        if low.priority >= high.priority or not self.natto.pa:
            return False
        if high.order < low.order:
            return False
        if self._completes_in_time(low, high):
            return False  # remote servers apply the same skip rule
        my_pid = self.partition_id
        high_req, low_req = high.request, low.request
        common = set(high_req.participants) & set(low_req.participants)
        common.discard(my_pid)
        slices = self.partitioner.group_keys
        high_reads = slices(high_req.full_reads)
        high_writes = slices(high_req.full_writes)
        low_reads = slices(low_req.full_reads)
        low_writes = slices(low_req.full_writes)
        for pid in common:
            if not sets_conflict(
                high_reads.get(pid, []),
                high_writes.get(pid, []),
                low_reads.get(pid, []),
                low_writes.get(pid, []),
            ):
                continue
            # high must reach that server while low still sits in its
            # queue (i.e. before low's execution timestamp).
            if high_req.arrival_estimates.get(pid, float("inf")) < low.ts:
                return True
        return False

    # ------------------------------------------------------------------
    # RECSF (§3.4)

    def _recsf_forward(self, info: NattoTxn, blockers: List[NattoTxn]) -> None:
        remaining = set(info.reads)
        forwarded_any = False
        for blocker in blockers:
            overlap = remaining & set(blocker.request.full_writes)
            if not overlap:
                continue
            remaining -= overlap
            forwarded_any = True
            self.stats["recsf_forwards"] += 1
            self._network.send(
                self,
                blocker.request.coordinator,
                "recsf_forward",
                RecsfForward(
                    blocker.txn,
                    info.txn,
                    info.request.client,
                    self.partition_id,
                    sorted(overlap),
                ),
            )
        if not forwarded_any:
            return
        # Keys untouched by any blocker are stable until we prepare;
        # serve them now so the client can assemble the partition early.
        base_values = {key: self.store.read(key).value for key in remaining}
        self._network.send(
            self,
            info.request.client,
            "txn_event",
            PartitionValuesEvent(
                info.txn, "recsf_base", self.partition_id, base_values
            ),
        )

    # ------------------------------------------------------------------
    # Outcome

    def handle_commit_txn(self, payload: Payload, src: str) -> None:
        txn = payload.txn
        if not payload.decision:
            self._bury(txn, payload.reason)
            self._resolve_conditions(txn, committed=False)
            self._settle(txn, payload.reason)
            self._drain_waiting()
            return
        writes = payload.writes or {}
        self._resolve_conditions(txn, committed=True)
        if self.natto.lecsf:
            # ECSF: visible and released at commit arrival; replication
            # to followers continues in the background.
            self.store.apply_writes(writes, txn)
            self._applied_early.add(txn)
            self._settle(txn)
            self.propose(("writes", txn, writes))
            self._drain_waiting()
        else:
            self.propose(("writes", txn, writes)).add_done_callback(
                lambda _: (self._settle(txn), self._drain_waiting())
            )

    def _settle(self, txn: str, reason=None) -> None:
        """The coordinator's outcome reached ``txn``: retire the attempt,
        whatever state it is in, and refuse its reads if they are still
        owed (an abort of a queued or waiting attempt)."""
        self._rap_seen.discard(txn)
        info = self.txns.get(txn)
        if info is None:
            return  # already retired by a priority or OCC abort
        queued = info.state == "queued"
        self._retire(info)
        if queued:
            self._schedule_dispatch()
        if not info.reply.done:
            info.reply.set_result(Refusal(reason_value(reason)))

    def _retire(self, info: NattoTxn) -> None:
        """The one way an attempt leaves this participant: its state
        says which structures hold it, so no membership scan is needed.
        Callers keep what differs per exit: the reply, the vote and
        re-arming the dispatch timer."""
        state = info.state
        info.state = "done"
        del self.txns[info.txn]
        self._index.remove(info)
        if state == "queued":
            self.queue.remove(info)
        elif state == "waiting":
            self.waiting.remove(info)
        elif state == "cond":
            self.waiting.remove(info)
            self._unmark_conditional(info)
        elif state == "prepared":
            self.prepared.remove(info.txn)
        for span in (info.queue_span, info.prepared_span):
            if span is not None:
                span.finish()
        info.queue_span = None
        info.prepared_span = None

    def _unmark_conditional(self, info: NattoTxn) -> None:
        """Undo a conditional prepare: drop the prepared mark and unlink
        ``info`` from each blocker it waits on. ``info.condition`` is
        left as it is; a vote still being replicated reads it."""
        self.prepared.remove(info.txn)
        for blocker in info.condition:
            waiters = self._conditions.get(blocker)
            if waiters is not None:
                waiters.discard(info.txn)

    def _resolve_conditions(self, blocker_txn: str, committed: bool) -> None:
        waiters = self._conditions.pop(blocker_txn, set())
        # Sorted: set order follows the string hash seed, and each
        # waiter may send a message.
        for txn_id in sorted(waiters):
            high = self.txns.get(txn_id)
            if high is None or high.state != "cond":
                continue
            if committed:
                # Condition failed: back to the normal path with a fresh
                # read epoch.
                self.stats["conditions_failed"] += 1
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.event(
                        "condition_failed",
                        node=self.name,
                        txn=high.txn,
                        reason=str(AbortReason.CONDITION_FAILED),
                        blocker=blocker_txn,
                    )
                self._unmark_conditional(high)
                high.condition = set()
                high.state = "waiting"
                high.epoch += 1
                self._notify_condition(high, ok=False)
            else:
                high.condition.discard(blocker_txn)
                if not high.condition:
                    self.stats["conditions_ok"] += 1
                    high.state = "prepared"
                    self.waiting.remove(high)  # listed while "cond"
                    self._notify_condition(high, ok=True)

    def _notify_condition(self, info: NattoTxn, ok: bool) -> None:
        self._network.send(
            self,
            info.request.coordinator,
            "condition_resolved",
            ConditionResolved(
                info.txn,
                self.partition_id,
                ok,
                info.epoch if ok else info.epoch - 1,
            ),
        )

    # ------------------------------------------------------------------
    # Replicated state machine

    def on_apply(self, payload: Any, index: int) -> None:
        if payload[0] != "writes":
            return  # prepare / cond_prepare records: recovery-only
        _, txn, writes = payload
        if txn in self._applied_early:
            self._applied_early.discard(txn)  # LECSF applied it already
            return
        self.store.apply_writes(writes, txn)
