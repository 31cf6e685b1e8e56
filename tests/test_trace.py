"""Unit tests for repro.trace: tracer, metrics, exporters, assertions, CLI."""

import json

import pytest

from repro.sim import Environment, MetricsRegistry
from repro.trace import (
    NULL_CHANNEL,
    Tracer,
    install,
    tracing,
    uninstall,
)
from repro.trace.assertions import TraceAssertions
from repro.trace.export import chrome_events, write_chrome, write_jsonl


# ---------------------------------------------------------------------------
# channel lifecycle
# ---------------------------------------------------------------------------

def test_environment_gets_null_channel_by_default():
    env = Environment()
    assert env.trace is NULL_CHANNEL
    assert env.trace.enabled is False
    # null ops are safe even unguarded
    span = env.trace.begin("x")
    span.end()
    env.trace.instant("y")
    env.trace.counter("z", 1)


def test_tracing_context_binds_and_restores():
    assert Environment().trace.enabled is False
    with tracing() as tracer:
        env = Environment()
        assert env.trace.enabled is True
        env.trace.instant("inside")
    assert Environment().trace.enabled is False
    assert tracer.events[0]["name"] == "inside"


def test_install_uninstall():
    tracer = Tracer()
    install(tracer)
    try:
        assert Environment().trace.enabled
    finally:
        uninstall()
    assert not Environment().trace.enabled


def test_nested_tracing_restores_outer():
    with tracing() as outer:
        with tracing() as inner:
            Environment().trace.instant("deep")
        env = Environment()
        env.trace.instant("shallow")
    assert [e["name"] for e in inner.events] == ["deep"]
    assert [e["name"] for e in outer.events] == ["shallow"]


# ---------------------------------------------------------------------------
# spans and events
# ---------------------------------------------------------------------------

def _traced_env():
    tracer = Tracer()
    install(tracer)
    env = Environment()
    uninstall()
    return tracer, env


def test_span_records_simulated_interval():
    tracer, env = _traced_env()

    def p():
        with env.trace.begin("work", tid="w", args={"k": 1}):
            yield env.timeout(3.25)

    env.process(p())
    env.run()
    (ev,) = tracer.events
    assert ev == {"ph": "X", "name": "work", "ts": 0.0, "dur": 3.25,
                  "tid": "w", "args": {"k": 1}}


def test_span_end_merges_extra_args_and_is_idempotent():
    tracer, env = _traced_env()
    span = env.trace.begin("s", args={"a": 1})
    span.end(b=2)
    span.end(c=3)  # ignored
    (ev,) = tracer.events
    assert ev["args"] == {"a": 1, "b": 2}


def test_finalize_closes_dangling_spans():
    tracer, env = _traced_env()

    def p():
        env.trace.begin("never-closed", tid="w")
        yield env.timeout(5.0)

    env.process(p())
    env.run()
    tracer.finalize()
    (ev,) = tracer.events
    assert ev["dur"] == 5.0
    assert ev["args"]["unfinished"] is True
    # finalize is idempotent
    tracer.finalize()
    assert len(tracer.events) == 1


def test_counter_event_shape():
    tracer, env = _traced_env()
    env.trace.counter("queue_depth", 7, tid="mgr")
    (ev,) = tracer.events
    assert ev["ph"] == "C"
    assert ev["args"] == {"queue_depth": 7}


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------

def test_metrics_views_sum_per_name():
    reg = MetricsRegistry()
    written = {"scratch": 2.0, "archive": 3.0}
    reg.add("pfs.bytes_written", lambda: written["scratch"])
    reg.add("pfs.bytes_written", lambda: written["archive"])
    reg.add("tapesim.mounts", lambda: 4)
    assert reg.snapshot() == {"pfs.bytes_written": 5.0, "tapesim.mounts": 4}
    # views read the live counters; the registry keeps no copy
    written["archive"] = 10.0
    assert reg.snapshot() == {"pfs.bytes_written": 12.0, "tapesim.mounts": 4}


def test_metrics_snapshot_registration_order():
    reg = MetricsRegistry()
    reg.add("b", lambda: 1)
    reg.add("a", lambda: 2)
    reg.add("b", lambda: 3)
    assert list(reg.snapshot()) == ["b", "a"]


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

def _sample_tracer():
    tracer, env = _traced_env()

    def p():
        with env.trace.begin("phase", tid="w0", cat="test"):
            yield env.timeout(1.5)
        env.trace.instant("tick", tid="w0")

    env.process(p())
    env.run()
    files = 3
    env.metrics.add("files", lambda: files)
    return tracer, env


def test_jsonl_export_roundtrips(tmp_path):
    tracer, env = _sample_tracer()
    path = tmp_path / "t.jsonl"
    with open(path, "w") as fh:
        write_jsonl(tracer, fh)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0]["schema"] == 1
    assert lines[1]["name"] == "phase"
    assert lines[2]["name"] == "tick"
    # the trailer is the traced env's registry: the kernel's own count,
    # then the view the test registered
    assert lines[-1]["metrics"] == {
        "sim.events": env.events_processed, "files": 3}


def test_chrome_export_is_valid_trace_event_json(tmp_path):
    tracer, env = _sample_tracer()
    path = tmp_path / "t.trace.json"
    with open(path, "w") as fh:
        write_chrome(tracer, fh)
    doc = json.loads(path.read_text())
    evs = doc["traceEvents"]
    assert {e["ph"] for e in evs} == {"X", "i"}
    span = next(e for e in evs if e["ph"] == "X")
    # microsecond integer clock
    assert span["ts"] == 0 and span["dur"] == 1_500_000
    assert span["pid"] == 1 and span["tid"] == "w0"
    inst = next(e for e in evs if e["ph"] == "i")
    assert inst["s"] == "t"
    assert doc["otherData"]["metrics"] == {
        "sim.events": env.events_processed, "files": 3}


def test_chrome_events_microsecond_rounding():
    tracer, env = _traced_env()
    span = env.trace.begin("s")
    span.end(t1=1.23456789)
    (ev,) = chrome_events(tracer)
    assert ev["dur"] == 1_234_568


# ---------------------------------------------------------------------------
# assertions
# ---------------------------------------------------------------------------

def _tracer_with(events):
    tracer = Tracer()
    tracer.events.extend(events)
    return tracer


def span(name, ts, dur, tid="", **args):
    ev = {"ph": "X", "name": name, "ts": ts, "dur": dur}
    if tid:
        ev["tid"] = tid
    if args:
        ev["args"] = args
    return ev


def test_happens_before_passes_and_fails():
    ok = TraceAssertions(_tracer_with([
        span("store", 0, 2), span("recall", 3, 1),
    ]))
    ok.happens_before("store", "recall")
    bad = TraceAssertions(_tracer_with([
        span("store", 0, 5), span("recall", 3, 1),
    ]))
    with pytest.raises(AssertionError, match="starts before"):
        bad.happens_before("store", "recall")


def test_happens_before_grouped_by_args():
    # per-volume: v1's recall may start before v2's store ends
    ta = TraceAssertions(_tracer_with([
        span("store", 0, 2, volume="v1"),
        span("store", 1, 9, volume="v2"),
        span("recall", 3, 1, volume="v1"),
    ]))
    ta.happens_before("store", "recall", per="args:volume")
    with pytest.raises(AssertionError):
        ta.happens_before("store", "recall")  # ungrouped: v2 still open


def test_no_overlap_detects_double_mount():
    ok = TraceAssertions(_tracer_with([
        span("drive:mounted", 0, 5, tid="dr0"),
        span("drive:mounted", 5, 5, tid="dr0"),  # touching is fine
        span("drive:mounted", 2, 5, tid="dr1"),  # other drive may overlap
    ]))
    ok.no_overlap("drive:mounted", per="tid")
    bad = TraceAssertions(_tracer_with([
        span("drive:mounted", 0, 5, tid="dr0"),
        span("drive:mounted", 4, 5, tid="dr0"),
    ]))
    with pytest.raises(AssertionError, match="overlap"):
        bad.no_overlap("drive:mounted", per="tid")


def test_monotonic_tape_order():
    ok = TraceAssertions(_tracer_with([
        span("recall", 0, 1, volume="v1", seq=1),
        span("recall", 1, 1, volume="v2", seq=1),
        span("recall", 2, 1, volume="v1", seq=3),
    ]))
    ok.monotonic("recall", "seq", per="args:volume")
    bad = TraceAssertions(_tracer_with([
        span("recall", 0, 1, volume="v1", seq=3),
        span("recall", 1, 1, volume="v1", seq=1),
    ]))
    with pytest.raises(AssertionError, match="not monotonic"):
        bad.monotonic("recall", "seq", per="args:volume")


def test_covers_detects_gap_overlap_and_short():
    full = TraceAssertions(_tracer_with([
        span("chunk", 0, 1, dst="/f", offset=0, length=10),
        span("chunk", 1, 1, dst="/f", offset=10, length=10),
    ]))
    full.covers("chunk", 20, per="args:dst")
    gap = TraceAssertions(_tracer_with([
        span("chunk", 0, 1, dst="/f", offset=0, length=10),
        span("chunk", 1, 1, dst="/f", offset=15, length=5),
    ]))
    with pytest.raises(AssertionError, match="gap"):
        gap.covers("chunk", 20, per="args:dst")
    short = TraceAssertions(_tracer_with([
        span("chunk", 0, 1, dst="/f", offset=0, length=10),
    ]))
    with pytest.raises(AssertionError, match="end at 10"):
        short.covers("chunk", 20, per="args:dst")


def test_span_count_and_missing_names():
    ta = TraceAssertions(_tracer_with([span("a", 0, 1)]))
    ta.span_count("a", expect=1)
    with pytest.raises(AssertionError):
        ta.span_count("a", expect=2)
    with pytest.raises(AssertionError, match="no events"):
        ta.happens_before("nope", "a")
    with pytest.raises(AssertionError, match="no spans"):
        ta.no_overlap("nope")


# ---------------------------------------------------------------------------
# CLI / determinism
# ---------------------------------------------------------------------------

def test_cli_traces_scenario_byte_identically(tmp_path):
    from repro.trace.__main__ import main

    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["--scenario", "fabric_sparse", "--seed", "5",
                 "--out", str(out1)]) == 0
    assert main(["--scenario", "fabric_sparse", "--seed", "5",
                 "--out", str(out2)]) == 0
    for suffix in (".jsonl", ".trace.json"):
        b1 = (tmp_path / f"r1{suffix}").read_bytes()
        b2 = (tmp_path / f"r2{suffix}").read_bytes()
        assert b1 == b2
    doc = json.loads((tmp_path / "r1.trace.json").read_text())
    assert doc["otherData"]["scenario"] == "fabric_sparse"
    assert doc["otherData"]["seed"] == 5
    assert len(doc["traceEvents"]) > 0


def test_cli_seed_changes_trace(tmp_path):
    from repro.trace.__main__ import main

    assert main(["--scenario", "fabric_sparse", "--seed", "1",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["--scenario", "fabric_sparse", "--seed", "2",
                 "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a.jsonl").read_bytes() != (tmp_path / "b.jsonl").read_bytes()


def test_cli_unknown_scenario_exit_code(tmp_path, capsys):
    from repro.trace.__main__ import main

    assert main(["--scenario", "no_such", "--out", str(tmp_path / "x")]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_tracing_does_not_perturb_simulated_results():
    """The overhead contract: tracing must be observational only."""
    from repro.perf.scenarios import fabric_sparse

    plain = fabric_sparse(seed=11).headline
    with tracing():
        traced = fabric_sparse(seed=11).headline
    assert plain == traced
