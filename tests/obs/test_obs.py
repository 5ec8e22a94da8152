"""Unit tests for the tracer and exporters."""

import json
import os
import subprocess
import sys

import repro

from repro.obs import AbortReason, Tracer, reason_value
from repro.obs.export import (
    chrome_trace,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.sim import Simulator


# ----------------------------------------------------------------------
# Tracer


def test_span_tree_and_clock():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    root = tracer.span("txn", node="client", txn="t1")
    now[0] = 1.0
    child = tracer.span("attempt", node="client", txn="t1.0", parent=root)
    now[0] = 3.5
    child.finish()
    root.finish()
    assert child.parent_id == root.span_id
    assert child.start == 1.0 and child.end == 3.5
    assert root.end == 3.5


def test_span_accepts_raw_parent_id():
    tracer = Tracer()
    span = tracer.span("child", parent=17)
    assert span.parent_id == 17


def test_abort_and_refuse_events_carry_reasons():
    tracer = Tracer()
    tracer.abort(AbortReason.PREEMPTED, node="client", txn="t1.0")
    tracer.refuse("OCC_CONFLICT", node="p0", txn="t1.0")
    tracer.abort(None, node="client", txn="t1.1")
    reasons = [e.attrs["reason"] for e in tracer.events]
    assert reasons == ["PREEMPTED", "OCC_CONFLICT", "UNKNOWN"]


def test_reason_value_normalizes():
    assert reason_value(AbortReason.LOCK_CONFLICT) == "LOCK_CONFLICT"
    assert reason_value("STALE_READ") == "STALE_READ"
    assert reason_value(None) == "UNKNOWN"


# ----------------------------------------------------------------------
# Attachment


def test_simulator_defaults_to_null_obs():
    assert Simulator().tracer is None


def test_simulator_loads_without_repro_obs():
    # An untraced run needs no tracing code: the kernel only names the
    # Tracer type for annotations.
    code = (
        "import sys, repro.sim; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.obs')))"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"


def test_attach_binds_sim_clock():
    sim = Simulator()
    tracer = Tracer().attach(sim)
    assert sim.tracer is tracer
    sim.schedule(2.5, lambda: tracer.span("s").finish())
    sim.run()
    span = tracer.spans[0]
    assert span.start == 2.5 and span.end == 2.5


# ----------------------------------------------------------------------
# Exporters


def _traced_run():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    root = tracer.span("txn", node="client", txn="t1", priority="HIGH")
    attempt = tracer.span("attempt", node="client", txn="t1.0", parent=root)
    now[0] = 0.5
    tracer.span("net:vote", node="p0", txn="t1.0").finish(at=0.6)
    tracer.refuse(AbortReason.OCC_CONFLICT, node="p0", txn="t1.0")
    tracer.abort(AbortReason.OCC_CONFLICT, node="client", txn="t1.0")
    now[0] = 1.0
    attempt.finish()
    root.set(outcome="committed").finish()
    return tracer


def test_jsonl_round_trip(tmp_path):
    tracer = _traced_run()
    path = str(tmp_path / "run.trace.jsonl")
    write_jsonl(tracer, path, meta={"system": "Test"})
    records = read_jsonl(path)
    meta = [r for r in records if r["type"] == "meta"]
    spans = [r for r in records if r["type"] == "span"]
    events = [r for r in records if r["type"] == "event"]
    assert meta[0]["system"] == "Test"
    assert len(spans) == 3
    assert len(events) == 2
    root = next(s for s in spans if s["name"] == "txn")
    attempt = next(s for s in spans if s["name"] == "attempt")
    assert attempt["parent"] == root["id"]
    assert root["attrs"]["outcome"] == "committed"
    abort = next(e for e in events if e["name"] == "abort")
    assert abort["attrs"]["reason"] == "OCC_CONFLICT"


def test_chrome_trace_shape():
    trace = chrome_trace(_traced_run(), meta={"system": "Test"})
    events = trace["traceEvents"]
    phases = {e["ph"] for e in events}
    assert "X" in phases  # complete events for finished spans
    assert "M" in phases  # process-name metadata per node
    assert "i" in phases  # instant events (abort/refuse)
    for entry in events:
        if entry["ph"] == "X":
            assert entry["dur"] >= 0
            assert isinstance(entry["ts"], (int, float))
    json.dumps(trace)  # must not raise


def test_export_via_observability(tmp_path):
    sim = Simulator()
    tracer = Tracer().attach(sim)
    sim.schedule(1.0, lambda: tracer.span("s", node="n").finish())
    sim.run()
    jsonl_path = str(tmp_path / "t.jsonl")
    chrome_path = str(tmp_path / "t.json")
    write_jsonl(tracer, jsonl_path)
    write_chrome_trace(tracer, chrome_path)
    assert [r["type"] for r in read_jsonl(jsonl_path)] == ["span"]
    with open(chrome_path) as fh:
        assert json.load(fh)["traceEvents"]
