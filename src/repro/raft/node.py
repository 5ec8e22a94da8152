"""A Raft replica.

Implements the core of the protocol: terms, the three roles, leader
election with randomized timeouts, AppendEntries replication with
log-matching repair (next_index back-off), and majority commit.

Simplifications relative to a production Raft (documented in DESIGN.md):

* no persistence (the simulation never crash-restarts a node);
* no snapshotting/log compaction;
* no membership changes.

The experiments run with ``election_timeout=None`` (stable pre-designated
leaders, matching the paper's failure-free evaluation); elections are
exercised by the unit tests in ``tests/raft/test_election.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.node import Node
from repro.net.network import Network
from repro.net.payload import (
    AppendEntries,
    AppendEntriesResponse,
    RequestVote,
    RequestVoteResponse,
)
from repro.raft.log import LogEntry, RaftLog
from repro.sim import Future, Simulator, Timer

#: Shared empty-entries sentinel for heartbeats (never mutated).
_NO_ENTRIES: tuple = ()


class Role(enum.Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


@dataclass(frozen=True)
class RaftConfig:
    """Timing parameters.

    ``election_timeout`` of None disables elections entirely (the
    harness's failure-free mode); otherwise each follower draws a
    timeout uniformly from [election_timeout, 2 * election_timeout).
    """

    heartbeat_interval: float = 0.05
    election_timeout: Optional[float] = None


class RaftReplica(Node):
    """One member of a replication group."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        datacenter: str,
        peers: List[str],
        config: RaftConfig = RaftConfig(),
        apply_callback: Optional[Callable[[Any, int], None]] = None,
        rng: Optional[np.random.Generator] = None,
        **node_kwargs: Any,
    ) -> None:
        super().__init__(sim, name, datacenter, **node_kwargs)
        self._network = network
        self.peers = [p for p in peers if p != name]
        self.config = config
        self.apply_callback = apply_callback
        self._rng = rng or np.random.default_rng(0)

        self.role = Role.FOLLOWER
        self.current_term = 0
        self.voted_for: Optional[str] = None
        self.log = RaftLog()
        self.commit_index = 0
        self.last_applied = 0
        self.leader_hint: Optional[str] = None

        # Leader volatile state.
        self._next_index: Dict[str, int] = {}
        self._match_index: Dict[str, int] = {}
        # Pipelining: highest index already shipped to each peer, so a
        # new proposal or heartbeat does not re-send in-flight entries.
        self._sent_index: Dict[str, int] = {}
        self._votes: set = set()
        # Proposals awaiting commit: index -> (term proposed in, future),
        # plus a min-heap of the same indexes so that a commit advance
        # releases them in index order without scanning the backlog.
        self._commit_futures: Dict[int, Tuple[int, Future]] = {}
        self._pending_indexes: List[int] = []
        # Idle-group fast path: heartbeats to every peer carry the same
        # (term, prev_index, prev_term, [], leader_commit) tuple between
        # log appends, and the matching success responses are likewise
        # identical between term/match changes.  One cached payload
        # object serves all of them — handlers never mutate payloads —
        # so an idle group stops allocating and re-sizing per beat.
        self._idle_append: Optional[AppendEntries] = None
        self._append_response: Optional[AppendEntriesResponse] = None

        self._election_timer: Optional[Timer] = None
        self._heartbeat_timer: Optional[Timer] = None
        #: Fault injection: while True the leader emits no heartbeats
        #: (and schedules none), modelling a frozen process whose
        #: timers cannot fire.  See :meth:`pause_heartbeats`.
        self.heartbeats_paused = False
        network.register(self)

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self) -> None:
        """Arm the election timer (no-op in failure-free mode)."""
        self._reset_election_timer()

    def become_leader(self) -> None:
        """Assume leadership directly (harness failure-free mode)."""
        self._ascend()

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
        term = self.current_term
        index = self.log.append(LogEntry(term, payload))
        future = Future()
        # An index can come back after a deposed leader's uncommitted
        # tail was overwritten and it was elected again.  Its old entry
        # is gone, so its proposal fails; the index is already queued.
        stale = self._commit_futures.get(index)
        self._commit_futures[index] = (term, future)
        if stale is None:
            heappush(self._pending_indexes, index)
        else:
            self._fail_proposal(stale, index)
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
            # The span ends when the entry commits (or its proposal
            # fails), so its length is the commit wait.  Registered before
            # any chance of resolution so the no-peer immediate-commit
            # path still records (fires synchronously).
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
        keeps its role and log; a paused leader simply goes silent, so
        followers with elections enabled will depose it."""
        self.heartbeats_paused = True
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None

    def resume_heartbeats(self) -> None:
        """Undo :meth:`pause_heartbeats`; a still-leader resumes beating
        immediately."""
        if not self.heartbeats_paused:
            return
        self.heartbeats_paused = False
        if self.role is Role.LEADER:
            self._broadcast_heartbeat()

    # ------------------------------------------------------------------
    # Elections

    def _reset_election_timer(self) -> None:
        if self.config.election_timeout is None:
            return
        if self._election_timer is not None:
            self._election_timer.cancel()
        timeout = float(
            self._rng.uniform(
                self.config.election_timeout, 2 * self.config.election_timeout
            )
        )
        self._election_timer = self.sim.schedule(timeout, self._start_election)

    def _start_election(self) -> None:
        if self.role is Role.LEADER:
            return
        self.role = Role.CANDIDATE
        self.current_term += 1
        self.voted_for = self.name
        self._votes = {self.name}
        self._reset_election_timer()
        if len(self._votes) >= self.quorum:
            self._ascend()
            return
        for peer in self.peers:
            self._network.send(
                self,
                peer,
                "request_vote",
                RequestVote(
                    self.current_term,
                    self.name,
                    self.log.last_index,
                    self.log.last_term,
                ),
            )

    def handle_request_vote(self, payload: RequestVote, src: str) -> None:
        term = payload.term
        if term > self.current_term:
            self._step_down(term)
        granted = (
            term == self.current_term
            and self.voted_for in (None, payload.candidate)
            and self.log.up_to_date(
                payload.last_log_index, payload.last_log_term
            )
        )
        if granted:
            self.voted_for = payload.candidate
            self._reset_election_timer()
        self._network.send(
            self,
            src,
            "request_vote_response",
            RequestVoteResponse(self.current_term, granted, self.name),
        )

    def handle_request_vote_response(
        self, payload: RequestVoteResponse, src: str
    ) -> None:
        if payload.term > self.current_term:
            self._step_down(payload.term)
            return
        if self.role is not Role.CANDIDATE or payload.term != self.current_term:
            return
        if payload.granted:
            self._votes.add(payload.voter)
            if len(self._votes) >= self.quorum:
                self._ascend()

    def _ascend(self) -> None:
        self.role = Role.LEADER
        self.leader_hint = self.name
        if self._election_timer is not None:
            self._election_timer.cancel()
        for peer in self.peers:
            self._next_index[peer] = self.log.last_index + 1
            self._match_index[peer] = 0
            self._sent_index[peer] = self.log.last_index
        self._broadcast_heartbeat()

    def _step_down(self, term: int) -> None:
        was_leader = self.role is Role.LEADER
        self.current_term = term
        self.role = Role.FOLLOWER
        self.voted_for = None
        if was_leader and self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
        self._reset_election_timer()

    # ------------------------------------------------------------------
    # Replication

    def _broadcast_heartbeat(self) -> None:
        if self.role is not Role.LEADER or self.heartbeats_paused:
            return
        for peer in self.peers:
            self._send_entries(peer)
        self._heartbeat_timer = self.sim.schedule(
            self.config.heartbeat_interval, self._broadcast_heartbeat
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
            # (term, prev, commit) has moved.  In steady state every
            # peer sees the same tuple, so one object serves them all.
            prev_term = self.log.term_at(prev_index)
            payload = self._idle_append
            if (
                payload is None
                or payload.term != self.current_term
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
        term = payload.term
        if term > self.current_term:
            self._step_down(term)
        if term < self.current_term:
            self._network.send(
                self,
                src,
                "append_entries_response",
                AppendEntriesResponse(self.current_term, False, self.name, 0),
            )
            return
        # Valid leader for this term.
        if self.role is Role.CANDIDATE:
            self.role = Role.FOLLOWER
        self.leader_hint = payload.leader
        self._reset_election_timer()
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
            if self._commit_futures:
                # Proposals from an earlier leadership of this replica.
                self._release_commit_futures()
        # Heartbeat responses between term/match changes are identical;
        # reuse the cached one (mirrors the leader's idle-payload cache).
        response = self._append_response
        if (
            response is None
            or response.term != self.current_term
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
        if payload.term > self.current_term:
            self._step_down(payload.term)
            return
        if self.role is not Role.LEADER:
            return
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
        # Highest index replicated on a majority whose term is current.
        matches = sorted(
            [self.log.last_index] + list(self._match_index.values()),
            reverse=True,
        )
        majority_match = matches[self.quorum - 1]
        for index in range(self.commit_index + 1, majority_match + 1):
            if self.log.term_at(index) == self.current_term:
                self.commit_index = index
        self._apply_committed()
        self._release_commit_futures()

    def _release_commit_futures(self) -> None:
        """Settle the pending proposals at or below ``commit_index``, in
        index order.  A proposal succeeds only if its own entry is the
        one that committed: after a change of leader another term's
        entry may sit at its index, and then it fails."""
        heap = self._pending_indexes
        futures = self._commit_futures
        term_at = self.log.term_at
        while heap and heap[0] <= self.commit_index:
            index = heappop(heap)
            pending = futures.pop(index)
            if term_at(index) == pending[0]:
                pending[1].set_result(index)
            else:
                self._fail_proposal(pending, index)

    def _fail_proposal(self, pending: Tuple[int, Future], index: int) -> None:
        term, future = pending
        future.set_exception(
            RuntimeError(
                f"{self.name}: entry {index} of term {term} was overwritten"
            )
        )

    def _apply_committed(self) -> None:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            entry = self.log.entry_at(self.last_applied)
            self.on_apply(entry.payload, self.last_applied)

    def on_apply(self, payload: Any, index: int) -> None:
        """Apply one committed entry; subclasses override to drive their
        state machines.  Default delegates to ``apply_callback``."""
        if self.apply_callback is not None:
            self.apply_callback(payload, index)
