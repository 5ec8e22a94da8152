"""The client driver: open-loop load generation and the retry loop.

Clients are application servers co-located with the data servers in
each datacenter.  The driver implements the paper's measurement rules:

* **open loop** — new transactions arrive at a fixed rate regardless of
  completions (the "transaction input rate"); retried transactions are
  not counted as new arrivals;
* **immediate retry** — an aborted transaction is retried at once, with
  a fresh attempt id;
* **retry budget** — after 100 retries (101 failed attempts) the
  transaction is marked failed and its latency excluded;
* a committed transaction's latency covers first attempt through final
  commit.

The driver owns each attempt's lifecycle: it makes one :class:`Attempt`
per try, hands it to the system's ``execute`` and retires it when
``execute`` returns.  It is also the client-side network endpoint:
systems route asynchronous per-attempt messages through ``txn_event``
messages.  A coordinator's ``decision`` resolves ``Attempt.decision``
(recording the abort reason); any other kind (wounds, late read
results, ...) goes to the attempt's ``on_event`` handler.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional, Sequence

import numpy as np

from repro.cluster.node import Node
from repro.net.network import Network
from repro.net.payload import Payload
from repro.obs.abort import reason_value
from repro.sim import Future, Simulator
from repro.systems.base import attempt_id
from repro.txn.stats import StatsCollector, TxnOutcome, TxnRecord
from repro.txn.transaction import TransactionSpec

#: Retries after which a client gives a transaction up (§5.1).
MAX_RETRIES = 100


class Attempt:
    """One try of one logical transaction, owned by the client driver.

    ``execute`` reads ``aid`` (the protocol-level id) and ``number``
    (0 for the first try), waits on ``decision`` for the coordinator's
    outcome, may set ``on_event`` to receive the attempt's other
    ``txn_event`` kinds, and reports why the attempt aborted through
    :meth:`note_abort`.  ``ended`` turns true once ``execute`` returned;
    events for the attempt are dropped from then on.
    """

    __slots__ = ("aid", "number", "decision", "on_event", "reason", "ended")

    def __init__(self, aid: str, number: int) -> None:
        self.aid = aid
        self.number = number
        self.decision = Future()
        self.on_event: Optional[Callable[[Payload, str], None]] = None
        self.reason: Optional[str] = None
        self.ended = False

    def note_abort(self, reason) -> None:
        """Record why the attempt aborted; the first reported cause wins.

        Systems call this from wherever they learn the reason (a refusal
        reply, a no-vote-driven decision, a wound).
        """
        if reason is not None and self.reason is None:
            self.reason = reason_value(reason)

    def refused(self, replies: Sequence[Payload]) -> bool:
        """Note the first refusal among ``replies``; whether there was one."""
        for reply in replies:
            if not reply.ok:
                self.note_abort(reply.reason)
                return True
        return False


class ClientDriver(Node):
    """One client machine."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        datacenter: str,
        system: "TransactionSystem",  # noqa: F821 - avoid import cycle
        stats: StatsCollector,
        max_retries: int = MAX_RETRIES,
        clock=None,
    ) -> None:
        super().__init__(sim, name, datacenter, clock=clock)
        self.network = network
        self.system = system
        self.stats = stats
        self.max_retries = max_retries
        self.txn_start_times: Dict[str, float] = {}
        #: attempt id -> the attempt, while its ``execute`` runs.
        self._attempts: Dict[str, Attempt] = {}
        self.inflight = 0
        network.register(self)
        system.on_client_created(self)

    # ------------------------------------------------------------------
    # Load generation

    def run_open_loop(
        self,
        workload: "Workload",  # noqa: F821 - structural typing (next_transaction)
        rate_per_second: float,
        until: float,
        rng: np.random.Generator,
    ) -> None:
        """Submit new transactions at ``rate_per_second`` until ``until``.

        Interarrival times are exponential (Poisson arrivals), drawn
        from ``rng``, a stream of this client's own (the harness passes
        the cluster's ``client.<name>``) that only this loop draws from,
        so gaps are pulled from pre-filled standard-exponential blocks —
        ``exponential(scale)`` is ``scale * standard_exponential()``
        exactly.
        """
        from repro.sim import BatchedStandardExponential

        mean_gap = 1.0 / rate_per_second
        sim = self.sim
        post = sim.post
        next_gap = BatchedStandardExponential(rng).next
        next_transaction = workload.next_transaction
        submit = self.submit
        name = self.name

        def _tick() -> None:
            if sim._now >= until:
                return
            submit(next_transaction(name))
            post(next_gap() * mean_gap, _tick)

        post(next_gap() * mean_gap, _tick)

    # ------------------------------------------------------------------
    # Transaction lifecycle

    def submit(self, spec: TransactionSpec) -> "Process":  # noqa: F821
        """Run one logical transaction to completion (with retries)."""
        return self.sim.spawn(self._run(spec))

    def _run(self, spec: TransactionSpec) -> Generator:
        start = self.sim.now
        self.inflight += 1
        # Systems that need a retry-stable age (wound-wait) read this.
        self.txn_start_times[spec.txn_id] = start
        tracer = self.sim.tracer
        root = None
        if tracer is not None:
            root = tracer.span(
                "txn",
                node=self.name,
                txn=spec.txn_id,
                priority=spec.priority.name,
                txn_type=spec.txn_type,
            )
        attempt = 0
        committed = False
        abort_reasons = []
        while True:
            aid = attempt_id(spec, attempt)
            attempt_span = None
            if tracer is not None:
                attempt_span = tracer.span(
                    "attempt", node=self.name, txn=aid, parent=root
                )
            current = Attempt(aid, attempt)
            self._attempts[aid] = current
            try:
                committed = yield from self.system.execute(self, spec, current)
            finally:
                current.ended = True
                self._attempts.pop(aid, None)
            reason = current.reason
            if attempt_span is not None:
                attempt_span.set(committed=committed)
                attempt_span.finish()
            if not committed:
                # The client is the single authority for attempt-level
                # abort accounting: one reason per failed attempt,
                # UNKNOWN when no site classified it.
                abort_reasons.append(reason_value(reason))
                if tracer is not None:
                    tracer.abort(reason, node=self.name, txn=aid)
            if committed or attempt >= self.max_retries:
                break
            attempt += 1
        self.txn_start_times.pop(spec.txn_id, None)
        self.inflight -= 1
        if root is not None:
            root.set(
                outcome="committed" if committed else "failed",
                retries=attempt,
            )
            root.finish()
        self.stats.add(
            TxnRecord(
                txn_id=spec.txn_id,
                priority=spec.priority,
                txn_type=spec.txn_type,
                start=start,
                end=self.sim.now,
                retries=attempt,
                outcome=(
                    TxnOutcome.COMMITTED if committed else TxnOutcome.FAILED
                ),
                abort_reasons=tuple(abort_reasons),
            )
        )
        return committed

    # ------------------------------------------------------------------
    # Asynchronous per-attempt events

    def handle_txn_event(self, payload: Payload, src: str) -> None:
        attempt = self._attempts.get(payload.txn)
        if attempt is None:
            return  # an unknown or ended attempt
        if payload.kind == "decision":
            if not payload.committed:
                attempt.note_abort(payload.reason)
            attempt.decision.try_set_result(payload.committed)
        elif attempt.on_event is not None:
            attempt.on_event(payload, src)
