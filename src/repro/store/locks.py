"""Shared/exclusive lock table for the 2PL+2PC baseline.

Mechanics live here; *policy* (wound-wait, priority preemption,
preempt-on-wait) lives in the system built on top, driven by the
``on_blocked`` callback:

* a transaction requests all its keys for one partition at once
  (:meth:`LockTable.request`); it may hold some keys while waiting for
  others (real 2PL behaviour — deadlock is prevented by the policy, not
  by all-or-nothing acquisition);
* whenever a grant attempt fails, ``on_blocked(txn_id, key, blockers)``
  fires, and the policy decides whether to wound/preempt a blocker
  (which eventually leads to :meth:`release` for the victim) or let the
  requester wait;
* waiters queue per key ordered by (timestamp, txn id) — older first —
  which is the wound-wait fairness order and also Natto-paper-style
  timestamp order when the 2PL system runs with priority preemption.

``release`` removes both held locks and queued waits, then re-drives
grants, whether the transaction finished or died while waiting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.sim import Future


class LockMode(enum.Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


def _compatible(a: LockMode, b: LockMode) -> bool:
    return a is LockMode.SHARED and b is LockMode.SHARED


@dataclass
class LockRequest:
    """One transaction's lock demand on one partition."""

    txn_id: str
    key_modes: Dict[str, LockMode]
    timestamp: float
    priority: int = 0  # higher = more important; policies may use it
    future: Future = field(default_factory=Future)
    granted: Set[str] = field(default_factory=set)

    @property
    def pending(self) -> Set[str]:
        return set(self.key_modes) - self.granted

    def sort_key(self) -> Tuple[float, str]:
        return (self.timestamp, self.txn_id)


class _KeyState:
    __slots__ = ("holders", "queue")

    def __init__(self) -> None:
        self.holders: Dict[str, LockMode] = {}
        self.queue: List[LockRequest] = []


class LockTable:
    """Per-partition lock manager."""

    def __init__(
        self,
        on_blocked: Optional[Callable[[str, str, Set[str]], None]] = None,
        order_key: Optional[Callable[[LockRequest], tuple]] = None,
    ) -> None:
        self._keys: Dict[str, _KeyState] = {}
        self._requests: Dict[str, LockRequest] = {}
        self.on_blocked = on_blocked
        # Queue ordering: timestamp order by default (wound-wait
        # fairness); the prioritized 2PL variants order by priority
        # first ("a separate queue per priority level").
        self.order_key = order_key or LockRequest.sort_key

    # ------------------------------------------------------------------
    # Queries

    def is_waiting(self, txn_id: str) -> bool:
        """Does this transaction have ungranted keys? (POW's predicate)"""
        request = self._requests.get(txn_id)
        return request is not None and bool(request.pending)

    def request_of(self, txn_id: str) -> Optional[LockRequest]:
        return self._requests.get(txn_id)

    # ------------------------------------------------------------------
    # Acquisition / release

    def request(self, request: LockRequest) -> Future:
        """Ask for all of ``request.key_modes``.

        The returned future resolves with ``True`` once every key is
        granted.  It never resolves with failure on its own — abandoning
        a request is the caller's move (:meth:`release`).
        """
        if request.txn_id in self._requests:
            raise ValueError(f"{request.txn_id} already has a lock request")
        self._requests[request.txn_id] = request
        for key in request.key_modes:
            state = self._keys.setdefault(key, _KeyState())
            state.queue.append(request)
            state.queue.sort(key=self.order_key)
        for key in list(request.key_modes):
            self._try_grant(key)
        self._check_done(request)
        return request.future

    def release(self, txn_id: str) -> None:
        """Drop all locks and queued waits of ``txn_id``; re-drive grants."""
        request = self._requests.pop(txn_id, None)
        if request is None:
            return
        for key in request.key_modes:
            state = self._keys.get(key)
            if state is None:
                continue
            state.holders.pop(txn_id, None)
            state.queue = [r for r in state.queue if r.txn_id != txn_id]
            self._try_grant(key)
            if not state.holders and not state.queue:
                del self._keys[key]

    # ------------------------------------------------------------------
    # Grant machinery

    def _try_grant(self, key: str) -> None:
        state = self._keys.get(key)
        if state is None:
            return
        # Grant from the queue head while compatible; stop at the first
        # waiter that cannot be granted (no barging past the queue).
        progressed = True
        while progressed and state.queue:
            progressed = False
            head = state.queue[0]
            mode = head.key_modes[key]
            conflicting = {
                holder
                for holder, held in state.holders.items()
                if holder != head.txn_id and not _compatible(mode, held)
            }
            if conflicting:
                if self.on_blocked is not None:
                    self.on_blocked(head.txn_id, key, conflicting)
                return
            state.queue.pop(0)
            state.holders[head.txn_id] = mode
            head.granted.add(key)
            self._check_done(head)
            progressed = True

    def _check_done(self, request: LockRequest) -> None:
        if not request.pending and not request.future.done:
            request.future.set_result(True)
