"""End-to-end: a traced YCSB+T run exports a parseable, coherent trace.

Runs a short, contended workload with tracing on, exports the JSONL
stream, re-parses it and asserts the structural invariants the trace CLI
relies on: every span/event ties back to a client-opened root ``txn``
span, attempts nest under their root, and aborted attempts carry a
classified (non-UNKNOWN) reason.  The module runs once per system in
``DRAIN_BY_SYSTEM``: Carousel, 2PL+2PC and Natto participants each
trace their refusals from their own handlers, and Carousel Fast's
followers refuse from theirs.  TAPIR is left out: it does not use Raft.
"""

import json

import pytest

from repro.harness import ExperimentSettings, make_system, run_experiment
from repro.obs.cli import main as trace_main
from repro.obs.export import read_jsonl, write_jsonl
from repro.workloads import YcsbTWorkload

#: System -> drain cap (s).  Within a 4 s cap 2PL+2PC(P) finishes only
#: two transactions, both on their first attempt, which would leave the
#: stats-record check nothing to compare; by 10 s it has finished ten
#: after hundreds of retries.
DRAIN_BY_SYSTEM = {
    "Carousel Basic": 4.0,
    "Carousel Fast": 4.0,
    "2PL+2PC(P)": 10.0,
    "Natto-RECSF": 4.0,
}


@pytest.fixture(scope="module", params=sorted(DRAIN_BY_SYSTEM))
def traced_result(request):
    # High contention (few keys) so aborts actually happen.
    return run_experiment(
        lambda: make_system(request.param),
        lambda rng: YcsbTWorkload(rng, num_keys=200),
        60,
        ExperimentSettings(
            duration=2.0,
            trim=0.5,
            drain=DRAIN_BY_SYSTEM[request.param],
            tracing=True,
        ),
    )


@pytest.fixture(scope="module")
def trace_records(traced_result, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("trace") / "run.trace.jsonl")
    write_jsonl(
        traced_result.tracer, path, meta={"system": traced_result.system_name}
    )
    return path, read_jsonl(path)


def _root_txn(txn):
    head, sep, tail = txn.rpartition(".")
    return head if sep and tail.isdigit() else txn


def test_run_produced_spans_and_snapshot(traced_result):
    tracer = traced_result.tracer
    assert tracer is not None
    assert any(span.name == "raft:replicate" for span in tracer.spans)
    system = traced_result.system
    assert system.cluster.network.messages_sent > 0
    assert system.cluster.sim.events_fired > 0
    if traced_result.system_name == "2PL+2PC(P)":
        wounds = [event for event in tracer.events if event.name == "wound"]
        assert wounds
        assert len(wounds) == sum(
            group.leader.wounds_sent for group in system.groups.values()
        )
    # Not ``committed_per_second``: 2PL+2PC(P)'s few commits fall
    # outside the trimmed window.
    assert any(record.committed for record in traced_result.stats.records)


def test_every_span_ties_back_to_a_root_txn(trace_records):
    _, records = trace_records
    spans = [r for r in records if r["type"] == "span"]
    roots = {
        s["txn"]: s for s in spans if s["name"] == "txn"
    }
    assert roots
    for span in spans:
        if span["txn"] is None:
            continue
        assert _root_txn(span["txn"]) in roots, span


def test_attempts_nest_under_their_root(trace_records):
    _, records = trace_records
    spans = [r for r in records if r["type"] == "span"]
    by_id = {s["id"]: s for s in spans}
    attempts = [s for s in spans if s["name"] == "attempt"]
    assert attempts
    for attempt in attempts:
        parent = by_id[attempt["parent"]]
        assert parent["name"] == "txn"
        assert _root_txn(attempt["txn"]) == parent["txn"]


def test_aborted_attempts_are_classified(trace_records):
    _, records = trace_records
    aborts = [
        r for r in records
        if r["type"] == "event" and r["name"] == "abort"
    ]
    assert aborts, "contended run should produce aborts"
    classified = [
        a for a in aborts if a["attrs"]["reason"] != "UNKNOWN"
    ]
    assert len(classified) / len(aborts) >= 0.99


def test_decision_aborts_carry_their_reason(traced_result, trace_records):
    # A Carousel or Natto coordinator's abort decision records why: a
    # participant's no-vote or the client's voluntary abort.  2PL+2PC's
    # coordinator traces no decision_abort event.
    _, records = trace_records
    decisions = [
        r for r in records
        if r["type"] == "event" and r["name"] == "decision_abort"
    ]
    if traced_result.system_name != "2PL+2PC(P)":
        assert decisions, "contended run should decide aborts"
    assert [d for d in decisions if d["attrs"]["reason"] == "UNKNOWN"] == []


def test_abort_events_match_stats_records(traced_result, trace_records):
    _, records = trace_records
    aborts = [
        r for r in records
        if r["type"] == "event" and r["name"] == "abort"
    ]
    stats_reasons = [
        reason
        for record in traced_result.stats.records
        for reason in record.abort_reasons
    ]
    # One client-side abort event per failed attempt of a *finished*
    # transaction; in-flight transactions at sim end only have events.
    assert len(aborts) >= len(stats_reasons)
    assert stats_reasons, "contended run should retry"
    assert all(r != "UNKNOWN" for r in stats_reasons) or (
        stats_reasons.count("UNKNOWN") / len(stats_reasons) <= 0.01
    )


def test_cli_summary_and_chrome_on_real_trace(
    trace_records, tmp_path, capsys
):
    path, _ = trace_records
    assert trace_main(["summary", path]) == 0
    out = capsys.readouterr().out
    assert "transactions:" in out
    assert "non-UNKNOWN" in out

    chrome_path = str(tmp_path / "run.chrome.json")
    assert trace_main(["chrome", path, "-o", chrome_path]) == 0
    with open(chrome_path) as fh:
        trace = json.load(fh)
    assert trace["traceEvents"]


def test_cli_critical_path_on_real_trace(trace_records, capsys):
    path, records = trace_records
    root = next(
        r for r in records if r["type"] == "span" and r["name"] == "txn"
    )
    assert trace_main(["critical-path", path, "--txn", root["txn"]]) == 0
    out = capsys.readouterr().out
    assert "timeline:" in out
    assert "critical path" in out
