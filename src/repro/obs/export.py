"""Trace exporters: JSONL (machine-diffable) and Chrome ``trace_event``.

JSONL is the canonical format: one JSON object per line, ``type`` one of
``meta`` / ``span`` / ``event``, all times in simulated seconds.  It is
what :mod:`repro.obs.cli` consumes and what the round-trip tests parse.

The Chrome format is the ``trace_event`` JSON-object flavour (a
``traceEvents`` array), loadable in Perfetto or ``chrome://tracing``:
spans become complete ("X") events with microsecond timestamps, nodes
become processes (named via metadata events), and each logical
transaction gets its own thread lane so its attempts stack readably.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Iterator, List, Optional

from repro.obs.trace import Tracer


def span_dict(span) -> dict:
    record = {
        "type": "span",
        "id": span.span_id,
        "name": span.name,
        "node": span.node,
        "txn": span.txn,
        "start": span.start,
        "end": span.end,
    }
    if span.parent_id is not None:
        record["parent"] = span.parent_id
    if span.attrs:
        record["attrs"] = span.attrs
    return record


def event_dict(event) -> dict:
    record = {
        "type": "event",
        "name": event.name,
        "node": event.node,
        "txn": event.txn,
        "time": event.time,
    }
    if event.attrs:
        record["attrs"] = event.attrs
    return record


def jsonl_lines(tracer: Tracer, meta: Optional[dict] = None) -> Iterator[str]:
    """All trace records as JSON strings, meta first, time-ordered-ish."""
    if meta is not None:
        yield json.dumps({"type": "meta", **meta})
    for span in tracer.spans:
        yield json.dumps(span_dict(span))
    for event in tracer.events:
        yield json.dumps(event_dict(event))


def write_jsonl(tracer: Tracer, path: str, meta: Optional[dict] = None) -> None:
    with open(path, "w") as fh:
        for line in jsonl_lines(tracer, meta):
            fh.write(line)
            fh.write("\n")


def read_jsonl(path: str) -> List[dict]:
    """Parse a JSONL trace back into a list of record dicts."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# ----------------------------------------------------------------------
# Chrome trace_event


def root_txn(txn: Optional[str]) -> str:
    """The logical transaction id of an attempt id (``<txn_id>.<n>``):
    Chrome lanes and the trace CLI group attempts by it."""
    if not txn:
        return ""
    head, _, tail = txn.rpartition(".")
    return head if head and tail.isdigit() else txn


def chrome_trace_from_records(
    records: Iterable[dict], meta: Optional[dict] = None
) -> dict:
    """JSONL-style record dicts as a Chrome ``trace_event`` object."""
    pids: Dict[str, int] = {}
    tids: Dict[str, int] = {}
    events: List[dict] = []

    def pid_for(node: Optional[str]) -> int:
        name = node or "(unknown)"
        if name not in pids:
            pids[name] = len(pids) + 1
            events.append({
                "ph": "M",
                "name": "process_name",
                "pid": pids[name],
                "tid": 0,
                "args": {"name": name},
            })
        return pids[name]

    def tid_for(txn: Optional[str]) -> int:
        root = root_txn(txn)
        if root not in tids:
            tids[root] = len(tids)
        return tids[root]

    for record in records:
        kind = record.get("type")
        txn = record.get("txn")
        args = dict(record.get("attrs") or {})
        if txn:
            args["txn"] = txn
        if kind == "span":
            start = record["start"]
            end = record["end"] if record.get("end") is not None else start
            events.append({
                "ph": "X",
                "cat": "span",
                "name": record["name"],
                "pid": pid_for(record.get("node")),
                "tid": tid_for(txn),
                "ts": start * 1e6,
                "dur": max(0.0, (end - start) * 1e6),
                "args": args,
            })
        elif kind == "event":
            events.append({
                "ph": "i",
                "s": "t",
                "cat": "event",
                "name": record["name"],
                "pid": pid_for(record.get("node")),
                "tid": tid_for(txn),
                "ts": record["time"] * 1e6,
                "args": args,
            })
        elif kind == "meta" and meta is None:
            meta = {k: v for k, v in record.items() if k != "type"}

    trace: dict = {"traceEvents": events, "displayTimeUnit": "ms"}
    if meta is not None:
        trace["otherData"] = meta
    return trace


def chrome_trace(tracer: Tracer, meta: Optional[dict] = None) -> dict:
    """The tracer's records as a Chrome ``trace_event`` JSON object."""
    records = [span_dict(s) for s in tracer.spans]
    records.extend(event_dict(e) for e in tracer.events)
    return chrome_trace_from_records(records, meta=meta)


def write_chrome_trace(
    tracer: Tracer, path: str, meta: Optional[dict] = None
) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer, meta), fh)
