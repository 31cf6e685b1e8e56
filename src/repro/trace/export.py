"""Trace exporters: JSONL stream and Chrome ``trace_event`` JSON.

Both formats are deterministic: keys sorted, compact separators, floats
via :func:`repr`-faithful ``json.dumps``.  Two runs with the same seed
therefore produce byte-identical files, which the trace CLI tests rely
on.

* **JSONL** — one JSON object per line: a ``meta`` header, each event in
  recorded order, then a ``metrics`` trailer: the snapshot of the
  traced Environment's ``env.metrics``.  Greppable and
  stream-parsable; the canonical format for tooling.
* **Chrome trace_event** — the "JSON Array Format" understood by
  ``chrome://tracing`` and Perfetto.  Timestamps/durations convert from
  simulated seconds to integer microseconds; ``pid`` is fixed at 1 (one
  simulated world) and ``tid`` is the component name (drive, rank, ...).
"""

from __future__ import annotations

import json
from typing import IO

__all__ = ["chrome_events", "write_chrome", "write_jsonl"]


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_jsonl(tracer, fh: IO[str]) -> None:
    """Write the tracer's events as a JSONL stream."""
    tracer.finalize()
    fh.write(_dumps({"meta": tracer.metadata, "schema": 1}) + "\n")
    for ev in tracer.events:
        fh.write(_dumps(ev) + "\n")
    fh.write(_dumps({"metrics": tracer.metrics_snapshot()}) + "\n")


def _us(seconds: float) -> int:
    # round-half-even at 1 µs granularity; simulated times are exact
    # enough that collisions don't matter for visualization
    return int(round(seconds * 1_000_000))


def chrome_events(tracer) -> list[dict]:
    """Tracer events converted to Chrome trace_event dicts (µs clock)."""
    out = []
    for ev in tracer.events:
        ch: dict = {
            "ph": ev["ph"],
            "name": ev["name"],
            "ts": _us(ev["ts"]),
            "pid": 1,
            "tid": ev.get("tid", "") or "main",
        }
        if ev["ph"] == "X":
            ch["dur"] = _us(ev["dur"])
        if ev["ph"] == "i":
            ch["s"] = "t"  # thread-scoped instant
        if "cat" in ev:
            ch["cat"] = ev["cat"]
        if "args" in ev:
            ch["args"] = ev["args"]
        out.append(ch)
    return out


def write_chrome(tracer, fh: IO[str]) -> None:
    """Write the tracer as a Chrome trace_event "JSON Array Format" file."""
    tracer.finalize()
    doc = {
        "traceEvents": chrome_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": dict(tracer.metadata, metrics=tracer.metrics_snapshot()),
    }
    fh.write(_dumps(doc) + "\n")
