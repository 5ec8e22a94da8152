"""Trace a contended run and inspect it programmatically.

Runs a short, hot-keyset YCSB+T experiment with tracing enabled, then
answers three "why" questions straight from the run's tracer — the same
data `python -m repro.trace` reads from an exported file:

1. where did transactions abort, and why (abort-reason taxonomy)?
2. which protocol phase dominates latency (span durations by name)?
3. what did the infrastructure do (the network's always-on counters,
   Raft commit waits and per-method message delays from the spans)?

Finally it exports both trace formats; open the Chrome one at
https://ui.perfetto.dev.

Run:  python examples/trace_inspect.py
"""

from collections import Counter, defaultdict

import numpy as np

from repro.harness import ExperimentSettings, make_system, run_experiment
from repro.obs import write_chrome_trace, write_jsonl
from repro.workloads import YcsbTWorkload


def main():
    settings = ExperimentSettings(
        duration=2.0, trim=0.5, drain=4.0, tracing=True
    )
    result = run_experiment(
        lambda: make_system("Natto-RECSF"),
        lambda rng: YcsbTWorkload(rng, num_keys=500),  # hot: forces conflicts
        60,
        settings,
    )
    tracer = result.tracer

    # 1. Abort taxonomy: one client-side abort event per failed attempt.
    reasons = Counter(
        event.attrs["reason"]
        for event in tracer.events
        if event.name == "abort"
    )
    print("abort reasons:")
    for reason, count in reasons.most_common():
        print(f"  {reason:24s} {count}")

    # 2. Phase durations from the span stream.
    durations = defaultdict(list)
    for span in tracer.spans:
        if span.finished:
            durations[span.name].append(span.end - span.start)
    print("\nmean duration by phase (ms):")
    for name, values in sorted(
        durations.items(), key=lambda kv: -sum(kv[1])
    ):
        mean_ms = 1000.0 * sum(values) / len(values)
        print(f"  {name:24s} {mean_ms:8.1f}  (n={len(values)})")

    # 3. Infrastructure: the network counts every message, traced or
    # not; the spans add Raft commit waits (one ``raft:replicate`` span
    # per proposal, tagged with its entry kind) and the delays of the
    # messages tagged with a transaction (one ``net:<method>`` span each).
    network = result.system.cluster.network
    print(
        f"\nnetwork: {network.messages_sent} messages, "
        f"{network.bytes_sent} bytes"
    )
    waits = defaultdict(list)
    delays = defaultdict(list)
    for span in tracer.spans:
        if not span.finished:
            continue
        if span.name == "raft:replicate":
            waits[span.attrs["kind"]].append(span.end - span.start)
        elif span.name.startswith("net:"):
            delays[span.name[4:]].append(span.end - span.start)
    print("raft commit wait by entry kind:")
    for kind, values in sorted(waits.items()):
        print(
            f"  {kind:22s} n={len(values):5d}  "
            f"p95 {1000.0 * np.percentile(values, 95):6.1f} ms"
        )
    print("tagged message delay by method:")
    for method, values in sorted(delays.items()):
        print(
            f"  {method:22s} n={len(values):5d}  "
            f"p95 {1000.0 * np.percentile(values, 95):6.1f} ms"
        )
    assert network.messages_sent > 0 and waits

    # 4. Export for the CLI / Perfetto.
    write_jsonl(tracer, "trace_inspect.trace.jsonl")
    write_chrome_trace(tracer, "trace_inspect.chrome.json")
    print(
        "\nwrote trace_inspect.trace.jsonl "
        "(python -m repro.trace summary trace_inspect.trace.jsonl)"
    )
    print("wrote trace_inspect.chrome.json (open in ui.perfetto.dev)")


if __name__ == "__main__":
    main()
