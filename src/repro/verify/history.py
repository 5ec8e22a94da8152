"""Conflict-serializability checking of committed executions.

How the pieces fit:

* :func:`tagged_rmw_spec` builds read-modify-write transactions whose
  written values are globally unique (``txn_id @ key``), so a read value
  identifies its writer without server-side instrumentation.
* :class:`ExecutionTrace` captures, per transaction, the read set the
  *final* (committed) execution used and the writes it produced — the
  write function records each invocation, and re-executions (Natto's
  failed conditional prepares) overwrite earlier ones, which matches
  the coordinator's last-writes-win behaviour.
* :class:`SerializabilityChecker` combines the trace with the stores'
  recorded version chains and checks:

  1. every committed transaction's writes appear exactly once in each
     written key's chain (no lost or duplicated updates);
  2. every read matches some version of the key (no phantom values);
  3. the dependency graph — ww edges along each chain, wr edges from
     writer to reader, rw anti-dependency edges from reader to the
     next writer — is acyclic (conflict-serializability).

The graph is a plain successor map, :data:`Graph`:
``{txn: {successor: (kind, key)}}``, where ``kind`` is ``"ww"``,
``"wr"`` or ``"rw"`` and ``key`` is the key the dependency is on. Every
committed transaction is a node, even one without edges.
:func:`find_cycle` walks it with an iterative depth-first search, so a
long dependency chain cannot hit Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.store.kv import KeyValueStore
from repro.txn.priority import Priority
from repro.txn.transaction import TransactionSpec

#: Writer id used for a key's initial (never-written) version.
INITIAL = "<initial>"

#: Dependency graph: txn -> {successor: (kind, key)}.
Graph = Dict[str, Dict[str, Tuple[str, str]]]


class SerializationViolation(AssertionError):
    """The committed history is not conflict-serializable (or breaks an
    integrity invariant)."""


@dataclass
class ExecutionTrace:
    """Client-side record of reads/writes per transaction."""

    #: txn_id -> (reads seen, writes produced) by the latest execution.
    executions: Dict[str, Tuple[Dict[str, str], Dict[str, str]]] = field(
        default_factory=dict
    )

    def record(
        self, txn_id: str, reads: Dict[str, str], writes: Dict[str, str]
    ) -> None:
        self.executions[txn_id] = (dict(reads), dict(writes))


def tagged_rmw_spec(
    trace: ExecutionTrace,
    txn_id: str,
    keys: Iterable[str],
    priority: Priority = Priority.LOW,
) -> TransactionSpec:
    """An RMW transaction writing unique, writer-identifying values."""
    keys = tuple(keys)

    def compute_writes(reads: Dict[str, str]) -> Dict[str, str]:
        writes = {key: f"{txn_id}@{key}" for key in keys}
        trace.record(txn_id, reads, writes)
        return writes

    return TransactionSpec(
        txn_id=txn_id,
        read_keys=keys,
        write_keys=keys,
        priority=priority,
        compute_writes=compute_writes,
    )


def enable_history(system) -> None:
    """Make every replica store of ``system`` keep its version chains,
    which the serializability checker reads."""
    groups = list(system.groups.values())
    groups += list(getattr(system, "coordinators", {}).values())
    for group in groups:
        for replica in group.replicas:
            store = getattr(replica, "store", None)
            if store is not None:
                store.record_history = True


def writer_of_value(value: str, key: str) -> str:
    """Map a read value back to the transaction that wrote it."""
    suffix = f"@{key}"
    if value.endswith(suffix):
        return value[: -len(suffix)]
    return INITIAL


class SerializabilityChecker:
    """Checks one execution against the recorded version chains."""

    def __init__(
        self,
        stores: Dict[str, KeyValueStore],
        trace: ExecutionTrace,
        committed: Iterable[str],
        strip_attempt_suffix: bool = True,
    ) -> None:
        """``stores`` maps an arbitrary label (e.g. partition id) to the
        authoritative store holding some of the keys; ``committed`` is
        the set of transaction ids that committed.

        Stores record *attempt* ids (``<txn_id>.<attempt>``) as writers;
        with ``strip_attempt_suffix`` chains are normalized back to
        logical transaction ids.
        """
        self._stores = stores
        self._trace = trace
        # Ordered, so the graph and any violation message do not depend
        # on the hash seed.
        self._committed = dict.fromkeys(committed)
        self._strip = strip_attempt_suffix

    # ------------------------------------------------------------------

    def _normalize(self, writer: str) -> str:
        if self._strip and "." in writer:
            return writer.rsplit(".", 1)[0]
        return writer

    def key_chain(self, key: str) -> List[str]:
        """Writer ids in version order for ``key`` (without INITIAL)."""
        for store in self._stores.values():
            if key in store.history:
                return [self._normalize(v.writer) for v in store.history[key]]
        return []

    def check(self) -> Graph:
        """Run all checks; raises :class:`SerializationViolation`.

        Returns the dependency graph as a successor map,
        ``{txn: {successor: (kind, key)}}``: ``"ww"`` from a key's writer
        to the next writer in its chain, ``"wr"`` from a writer to a
        reader of its value, ``"rw"`` from a reader to the writer that
        overwrote the version it read. Every committed transaction is a
        key. A violation's message lists a cycle's edges in order.
        """
        self._check_writes_installed()
        self._check_reads_exist()
        graph = self._build_graph()
        cycle = find_cycle(graph)
        if cycle is not None:
            edges = ", ".join(
                f"{u} -{kind}({key!r})-> {v}" for u, v, kind, key in cycle
            )
            raise SerializationViolation(
                f"dependency cycle in committed history: {edges}"
            )
        return graph

    # ------------------------------------------------------------------

    def _committed_executions(self):
        for txn_id in self._committed:
            execution = self._trace.executions.get(txn_id)
            if execution is not None:
                yield txn_id, execution

    def _check_writes_installed(self) -> None:
        for txn_id, (_, writes) in self._committed_executions():
            for key in writes:
                chain = self.key_chain(key)
                occurrences = chain.count(txn_id)
                if occurrences != 1:
                    raise SerializationViolation(
                        f"{txn_id} wrote {key!r} but appears "
                        f"{occurrences} times in its version chain"
                    )

    def _check_reads_exist(self) -> None:
        for txn_id, (reads, _) in self._committed_executions():
            for key, value in reads.items():
                writer = writer_of_value(value, key)
                if writer == INITIAL:
                    continue
                if writer not in self.key_chain(key):
                    raise SerializationViolation(
                        f"{txn_id} read {key!r} from {writer}, which never "
                        "committed a write to it"
                    )

    def _build_graph(self) -> Graph:
        graph: Graph = {txn_id: {} for txn_id in self._committed}

        def add_edge(u: str, v: str, kind: str, key: str) -> None:
            graph.setdefault(u, {})[v] = (kind, key)
            graph.setdefault(v, {})

        # ww edges: version order along each chain.
        keys = dict.fromkeys(
            key
            for _, (reads, writes) in self._committed_executions()
            for key in (*reads, *writes)
        )
        for key in keys:
            chain = self.key_chain(key)
            for earlier, later in zip(chain, chain[1:]):
                add_edge(earlier, later, "ww", key)
        # wr and rw edges.
        for txn_id, (reads, _) in self._committed_executions():
            for key, value in reads.items():
                writer = writer_of_value(value, key)
                chain = self.key_chain(key)
                if writer == INITIAL:
                    # Anti-dependency to the first writer, if any.
                    if chain and chain[0] != txn_id:
                        add_edge(txn_id, chain[0], "rw", key)
                    continue
                if writer != txn_id:
                    add_edge(writer, txn_id, "wr", key)
                index = chain.index(writer)
                if index + 1 < len(chain) and chain[index + 1] != txn_id:
                    add_edge(txn_id, chain[index + 1], "rw", key)
        return graph


def find_cycle(graph: Graph) -> Optional[List[Tuple[str, str, str, str]]]:
    """One cycle of ``graph`` as its edges ``(u, v, kind, key)`` in
    order, or ``None`` if the graph is acyclic.

    Iterative three-colour depth-first search: a node is absent (white),
    on the current path (grey) or finished (black); an edge into a grey
    node closes a cycle. Every successor must itself be a key of
    ``graph``.
    """
    finished: Dict[str, bool] = {}  # False: on the path; True: done
    for root in graph:
        if root in finished:
            continue
        finished[root] = False
        path = [root]
        successors = [iter(graph[root])]
        while successors:
            for node in successors[-1]:
                state = finished.get(node)
                if state is None:
                    finished[node] = False
                    path.append(node)
                    successors.append(iter(graph[node]))
                    break
                if state is False:
                    cycle = path[path.index(node):] + [node]
                    return [
                        (u, v) + graph[u][v] for u, v in zip(cycle, cycle[1:])
                    ]
            else:
                finished[path.pop()] = True
                successors.pop()
    return None
