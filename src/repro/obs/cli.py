"""The trace-inspection CLI behind ``python -m repro.trace``.

Subcommands (all consume the JSONL traces the harness exports):

* ``summary TRACE [TRACE...]`` — run metadata, transaction outcome
  counts, top abort reasons per system and priority, and a per-phase
  latency breakdown (one row per span name: count / mean / p95 ms);
* ``critical-path TRACE --txn ID`` — everything recorded for one
  logical transaction, as a chronological tree, plus the extracted
  critical path (the backward chain of spans that covers the
  transaction's duration);
* ``chrome TRACE -o OUT.json`` — convert JSONL to Chrome
  ``trace_event`` format for Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter, defaultdict
from typing import Dict, List, Optional

from repro.obs.export import chrome_trace_from_records, read_jsonl, root_txn


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f}"


def _percentile(values: List[float], q: float) -> float:
    values = sorted(values)
    if not values:
        return float("nan")
    rank = (q / 100.0) * (len(values) - 1)
    low = int(rank)
    high = min(low + 1, len(values) - 1)
    frac = rank - low
    return values[low] * (1.0 - frac) + values[high] * frac


class TraceFile:
    """One parsed JSONL trace, indexed the ways the subcommands need."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.records = read_jsonl(path)
        self.meta: dict = {}
        self.spans: List[dict] = []
        self.events: List[dict] = []
        for record in self.records:
            kind = record.get("type")
            if kind == "meta":
                self.meta.update(
                    {k: v for k, v in record.items() if k != "type"}
                )
            elif kind == "span":
                self.spans.append(record)
            elif kind == "event":
                self.events.append(record)
        #: logical txn id -> root "txn" span
        self.roots: Dict[str, dict] = {
            s["txn"]: s
            for s in self.spans
            if s["name"] == "txn" and s.get("txn")
        }

    @property
    def system(self) -> str:
        return str(self.meta.get("system", self.path))

    def priority_of(self, txn: Optional[str]) -> str:
        root = self.roots.get(root_txn(txn))
        if root is None:
            return "?"
        return str((root.get("attrs") or {}).get("priority", "?"))

    def family(self, txn_id: str) -> List[dict]:
        """All spans/events belonging to one logical transaction."""
        out = []
        for record in self.spans + self.events:
            if root_txn(record.get("txn")) == txn_id:
                out.append(record)
        return out


# ----------------------------------------------------------------------
# summary


def _span_duration(span: dict) -> float:
    end = span.get("end")
    return (end - span["start"]) if end is not None else 0.0


def summarize(trace: TraceFile, out) -> None:
    print(f"== {trace.system} ({trace.path}) ==", file=out)
    for key in ("input_rate", "seed", "window"):
        if key in trace.meta:
            print(f"  {key}: {trace.meta[key]}", file=out)

    roots = list(trace.roots.values())
    committed = sum(
        1 for r in roots if (r.get("attrs") or {}).get("outcome") == "committed"
    )
    attempts = sum(1 for s in trace.spans if s["name"] == "attempt")
    print(
        f"  transactions: {len(roots)} ({committed} committed, "
        f"{len(roots) - committed} failed), attempts: {attempts}",
        file=out,
    )

    # Abort reasons per priority (client-side `abort` events: one per
    # aborted attempt).
    aborts = [e for e in trace.events if e["name"] == "abort"]
    by_priority: Dict[str, Counter] = defaultdict(Counter)
    for event in aborts:
        reason = (event.get("attrs") or {}).get("reason", "UNKNOWN")
        by_priority[trace.priority_of(event.get("txn"))][reason] += 1
    print(f"  aborted attempts: {len(aborts)}", file=out)
    for priority in sorted(by_priority):
        ranked = by_priority[priority].most_common()
        total = sum(count for _, count in ranked)
        detail = ", ".join(f"{reason} {count}" for reason, count in ranked)
        print(f"    priority {priority}: {total}  [{detail}]", file=out)
    unknown = sum(
        counter.get("UNKNOWN", 0) for counter in by_priority.values()
    )
    if aborts:
        print(
            f"    classified: {100.0 * (1 - unknown / len(aborts)):.1f}% "
            "non-UNKNOWN",
            file=out,
        )

    # Per-phase latency breakdown.
    phases: Dict[str, List[float]] = defaultdict(list)
    for span in trace.spans:
        phases[span["name"]].append(_span_duration(span))
    print("  phase breakdown (ms):", file=out)
    header = f"    {'phase':<24}{'count':>8}{'mean':>10}{'p95':>10}"
    print(header, file=out)
    for name in sorted(phases, key=lambda n: -sum(phases[n])):
        durations = phases[name]
        print(
            f"    {name:<24}{len(durations):>8}"
            f"{_ms(sum(durations) / len(durations)):>10}"
            f"{_ms(_percentile(durations, 95.0)):>10}",
            file=out,
        )


# ----------------------------------------------------------------------
# critical-path


def _contains(outer: dict, inner: dict) -> bool:
    o_end = outer.get("end")
    i_end = inner.get("end")
    if o_end is None or i_end is None:
        return False
    return outer["start"] <= inner["start"] and i_end <= o_end


def critical_path(trace: TraceFile, txn_id: str, out) -> int:
    root = trace.roots.get(txn_id)
    if root is None:
        print(f"no root span for transaction {txn_id!r}", file=out)
        known = ", ".join(sorted(trace.roots)[:10])
        print(f"known ids start with: {known} ...", file=out)
        return 1
    family = trace.family(txn_id)
    spans = sorted(
        (r for r in family if r["type"] == "span"),
        key=lambda s: (s["start"], -(_span_duration(s))),
    )
    events = sorted(
        (r for r in family if r["type"] == "event"), key=lambda e: e["time"]
    )

    print(f"== transaction {txn_id} ==", file=out)
    attrs = root.get("attrs") or {}
    print(
        f"  priority={attrs.get('priority', '?')} "
        f"type={attrs.get('txn_type', '?')} "
        f"outcome={attrs.get('outcome', '?')} "
        f"latency={_ms(_span_duration(root))}ms",
        file=out,
    )

    print("  timeline:", file=out)
    t0 = root["start"]
    for span in spans:
        depth = sum(
            1 for other in spans if other is not span and _contains(other, span)
        )
        indent = "  " * depth
        print(
            f"    {span['start'] - t0:>9.4f}s {indent}{span['name']} "
            f"[{_ms(_span_duration(span))}ms] "
            f"node={span.get('node') or '-'} txn={span.get('txn') or '-'}",
            file=out,
        )
    for event in events:
        reason = (event.get("attrs") or {}).get("reason")
        suffix = f" reason={reason}" if reason else ""
        print(
            f"    {event['time'] - t0:>9.4f}s * {event['name']} "
            f"node={event.get('node') or '-'}{suffix}",
            file=out,
        )

    # Backward chain: repeatedly pick the span that ends latest at or
    # before the frontier; the chain (plus its gaps) is where the
    # transaction's wall-clock went.
    leaves = [
        s for s in spans
        if s is not root and s.get("end") is not None
        and not any(_contains(s, other) for other in spans if other is not s)
    ]
    frontier = root.get("end") or max(
        (s.get("end") or s["start"] for s in spans), default=root["start"]
    )
    chain: List[dict] = []
    eps = 1e-9
    while True:
        candidates = [s for s in leaves if s["end"] <= frontier + eps]
        if not candidates:
            break
        best = max(candidates, key=lambda s: (s["end"], _span_duration(s)))
        chain.append(best)
        if best["start"] <= root["start"] + eps:
            break
        frontier = best["start"]
        leaves = [s for s in leaves if s is not best]
    chain.reverse()

    print("  critical path:", file=out)
    previous_end = root["start"]
    for span in chain:
        gap = span["start"] - previous_end
        if gap > eps:
            print(f"    ... ({_ms(gap)}ms gap)", file=out)
        print(
            f"    {span['name']} [{_ms(_span_duration(span))}ms] "
            f"node={span.get('node') or '-'}",
            file=out,
        )
        previous_end = span["end"]
    return 0


# ----------------------------------------------------------------------
# entry point


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Inspect JSONL traces exported by the harness.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_summary = commands.add_parser(
        "summary", help="abort taxonomy + per-phase latency breakdown"
    )
    p_summary.add_argument("traces", nargs="+", help="JSONL trace file(s)")

    p_path = commands.add_parser(
        "critical-path", help="timeline + critical path for one transaction"
    )
    p_path.add_argument("trace", help="JSONL trace file")
    p_path.add_argument("--txn", required=True, help="logical transaction id")

    p_chrome = commands.add_parser(
        "chrome", help="convert JSONL to Chrome trace_event JSON (Perfetto)"
    )
    p_chrome.add_argument("trace", help="JSONL trace file")
    p_chrome.add_argument("-o", "--output", required=True)

    args = parser.parse_args(argv)
    out = sys.stdout

    try:
        if args.command == "summary":
            for path in args.traces:
                summarize(TraceFile(path), out)
            return 0
        if args.command == "critical-path":
            return critical_path(TraceFile(args.trace), args.txn, out)
        if args.command == "chrome":
            with open(args.output, "w") as fh:
                json.dump(
                    chrome_trace_from_records(read_jsonl(args.trace)), fh
                )
            print(f"wrote {args.output}", file=out)
            return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: not a JSONL trace file: {exc.msg}", file=sys.stderr)
        return 1
    return 2  # pragma: no cover - argparse enforces the choices
