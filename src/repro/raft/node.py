"""A Raft replica with a fixed leader.

The paper's prototypes "do not implement fault recovery" and every
experiment runs failure-free, so leadership never changes: the leader is
designated at construction (:class:`~repro.raft.group.ReplicationGroup`
makes its first replica lead) and every replica is in term 1 for the
whole run.  There are no elections.  What remains is AppendEntries
replication with log-matching repair (next_index back-off, which
blackhole faults exercise) and majority commit.  Terms stay in log
entries and messages, so the wire format and the log-matching check are
Raft's.

Simplifications relative to a production Raft (documented in DESIGN.md):

* no elections and no terms beyond the first;
* no persistence (the simulation never crash-restarts a node);
* no snapshotting/log compaction;
* no membership changes.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.cluster.node import Node
from repro.net.network import Network
from repro.net.payload import AppendEntries, AppendEntriesResponse
from repro.raft.log import LogEntry, RaftLog
from repro.sim import Future, Simulator, Timer

#: Shared empty-entries sentinel for heartbeats (never mutated).
_NO_ENTRIES: tuple = ()

#: Seconds between a leader's heartbeats.
HEARTBEAT_INTERVAL = 0.05


class Role(enum.Enum):
    FOLLOWER = "follower"
    LEADER = "leader"


class RaftReplica(Node):
    """One member of a replication group."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        datacenter: str,
        peers: List[str],
        **node_kwargs: Any,
    ) -> None:
        super().__init__(sim, name, datacenter, **node_kwargs)
        self._network = network
        self.peers = [p for p in peers if p != name]

        self.role = Role.FOLLOWER
        self.current_term = 1
        self.log = RaftLog()
        self.commit_index = 0
        self.last_applied = 0

        # Leader volatile state.
        self._next_index: Dict[str, int] = {}
        self._match_index: Dict[str, int] = {}
        # Pipelining: highest index already shipped to each peer, so a
        # new proposal or heartbeat does not re-send in-flight entries.
        self._sent_index: Dict[str, int] = {}
        # Proposals awaiting commit, (index, future) in index order: the
        # leader's log only grows, so proposals arrive in index order.
        self._commit_futures: Deque[Tuple[int, Future]] = deque()
        # Idle-group fast path: heartbeats to every peer carry the same
        # (term, prev_index, prev_term, [], leader_commit) tuple between
        # log appends, and the matching success responses are likewise
        # identical between match changes.  One cached payload object
        # serves all of them — handlers never mutate payloads — so an
        # idle group stops allocating and re-sizing per beat.
        self._idle_append: Optional[AppendEntries] = None
        self._append_response: Optional[AppendEntriesResponse] = None

        self._heartbeat_timer: Optional[Timer] = None
        #: Fault injection: while True the leader emits no heartbeats
        #: (and schedules none), modelling a frozen process whose
        #: timers cannot fire.  See :meth:`pause_heartbeats`.
        self.heartbeats_paused = False
        network.register(self)

    # ------------------------------------------------------------------
    # Lifecycle

    def become_leader(self) -> None:
        """Lead the group from now on and send the first heartbeat."""
        self.role = Role.LEADER
        for peer in self.peers:
            self._next_index[peer] = self.log.last_index + 1
            self._match_index[peer] = 0
            self._sent_index[peer] = self.log.last_index
        self._broadcast_heartbeat()

    @property
    def quorum(self) -> int:
        return (len(self.peers) + 1) // 2 + 1

    # ------------------------------------------------------------------
    # Client interface

    def propose(self, payload: Any) -> Future:
        """Append ``payload``; resolves with its index once committed.

        Only valid on the leader — the transaction systems always talk
        to the partition leader directly.
        """
        if self.role is not Role.LEADER:
            future = Future()
            future.set_exception(RuntimeError(f"{self.name} is not the leader"))
            return future
        index = self.log.append(LogEntry(self.current_term, payload))
        future = Future()
        self._commit_futures.append((index, future))
        tracer = self.sim.tracer
        if tracer is not None:
            # Payloads are ("<kind>", "<txn attempt id>", ...) tuples.
            kind = str(payload[0]) if isinstance(payload, tuple) and payload else "?"
            txn = (
                payload[1]
                if isinstance(payload, tuple)
                and len(payload) > 1
                and isinstance(payload[1], str)
                else None
            )
            span = tracer.span(
                "raft:replicate", node=self.name, txn=txn, kind=kind, index=index
            )
            # The span ends when the entry commits, so its length is the
            # commit wait.  Registered before any chance of resolution so
            # the no-peer immediate-commit path still records (fires
            # synchronously).
            future.add_done_callback(lambda _f: span.finish())
        if not self.peers:
            self._advance_commit()
        else:
            for peer in self.peers:
                self._send_entries(peer)
        return future

    # ------------------------------------------------------------------
    # Fault injection

    def pause_heartbeats(self) -> None:
        """Stop the heartbeat series (leader pause fault).  The replica
        keeps its role and log; a paused leader simply goes silent and,
        with no elections, is still the leader when it resumes."""
        self.heartbeats_paused = True
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None

    def resume_heartbeats(self) -> None:
        """Undo :meth:`pause_heartbeats`; a leader resumes beating
        immediately."""
        if not self.heartbeats_paused:
            return
        self.heartbeats_paused = False
        if self.role is Role.LEADER:
            self._broadcast_heartbeat()

    # ------------------------------------------------------------------
    # Replication

    def _broadcast_heartbeat(self) -> None:
        if self.heartbeats_paused:
            return
        for peer in self.peers:
            self._send_entries(peer)
        self._heartbeat_timer = self.sim.schedule(
            HEARTBEAT_INTERVAL, self._broadcast_heartbeat
        )

    def _send_entries(self, peer: str) -> None:
        next_index = self._next_index.get(peer, self.log.last_index + 1)
        # Ship only entries not already in flight; retransmission is
        # driven by failure responses resetting the send pointer.
        start = max(next_index, self._sent_index.get(peer, 0) + 1)
        prev_index = start - 1
        # Probe the tail length before slicing: idle heartbeats (the
        # common case) would otherwise allocate an empty list per peer.
        entries = (
            self.log.entries_from(start)
            if start <= self.log.last_index
            else None
        )
        if entries:
            self._sent_index[peer] = prev_index + len(entries)
            payload = AppendEntries(
                self.current_term,
                self.name,
                prev_index,
                self.log.term_at(prev_index),
                entries,
                self.commit_index,
            )
        else:
            # Idle heartbeat: reuse the cached payload while nothing in
            # (prev, commit) has moved.  In steady state every peer sees
            # the same tuple, so one object serves them all.
            prev_term = self.log.term_at(prev_index)
            payload = self._idle_append
            if (
                payload is None
                or payload.prev_index != prev_index
                or payload.prev_term != prev_term
                or payload.leader_commit != self.commit_index
            ):
                payload = AppendEntries(
                    self.current_term,
                    self.name,
                    prev_index,
                    prev_term,
                    _NO_ENTRIES,
                    self.commit_index,
                )
                self._idle_append = payload
        self._network.send(self, peer, "append_entries", payload)

    def handle_append_entries(self, payload: AppendEntries, src: str) -> None:
        entries = payload.entries
        if entries:
            success = self.log.append_from_leader(
                payload.prev_index, payload.prev_term, entries
            )
            match_index = payload.prev_index + len(entries) if success else 0
        else:
            # Idle heartbeat: append_from_leader with no entries is just
            # the consistency check — skip the list building.
            success = self.log.matches(payload.prev_index, payload.prev_term)
            match_index = payload.prev_index if success else 0
        if success and payload.leader_commit > self.commit_index:
            self.commit_index = min(
                payload.leader_commit, self.log.last_index
            )
            self._apply_committed()
        # Heartbeat responses between match changes are identical; reuse
        # the cached one (mirrors the leader's idle-payload cache).
        response = self._append_response
        if (
            response is None
            or response.success is not success
            or response.match_index != match_index
        ):
            response = AppendEntriesResponse(
                self.current_term, success, self.name, match_index
            )
            self._append_response = response
        self._network.send(self, src, "append_entries_response", response)

    def handle_append_entries_response(
        self, payload: AppendEntriesResponse, src: str
    ) -> None:
        peer = payload.follower
        if payload.success:
            match = payload.match_index
            if match > self._match_index.get(peer, 0):
                self._match_index[peer] = match
                self._next_index[peer] = match + 1
                self._advance_commit()
        else:
            # Log mismatch: back off, rewind the send pointer, retry.
            self._next_index[peer] = max(1, self._next_index.get(peer, 1) - 1)
            self._sent_index[peer] = self._next_index[peer] - 1
            self._send_entries(peer)

    def _advance_commit(self) -> None:
        # Highest index replicated on a majority (leader included).
        matches = sorted(
            [self.log.last_index] + list(self._match_index.values()),
            reverse=True,
        )
        majority_match = matches[self.quorum - 1]
        if majority_match > self.commit_index:
            self.commit_index = majority_match
        self._apply_committed()
        self._release_commit_futures()

    def _release_commit_futures(self) -> None:
        """Resolve the pending proposals at or below ``commit_index``,
        in index order."""
        pending = self._commit_futures
        while pending and pending[0][0] <= self.commit_index:
            index, future = pending.popleft()
            future.set_result(index)

    def _apply_committed(self) -> None:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            entry = self.log.entry_at(self.last_applied)
            self.on_apply(entry.payload, self.last_applied)

    def on_apply(self, payload: Any, index: int) -> None:
        """Apply one committed entry; subclasses override to drive their
        state machines.  The default applies nothing."""
