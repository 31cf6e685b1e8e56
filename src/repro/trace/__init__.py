"""Structured tracing for the simulated archive stack.

``repro.trace`` is the run-wide observability layer the paper's
production system had implicitly (operators watching PFTool phases, TSM
mount activity, migration queues) and our reproduction lacked: every
interesting component action — a chunk copy, a drive mount, a tape
recall — can emit a *span* or *instant event* keyed on **simulated
time**.  Counters live in the Environment's always-on registry
(``env.metrics``, see :mod:`repro.sim.metrics`), whose snapshot the
exporters write as the trace's metrics trailer.

Design constraints, in order:

1. **Disabled is free.**  Tracing is off by default.  Call sites hold a
   channel object and guard with ``if tr.enabled:``; when no tracer is
   installed they get the shared :data:`NULL_CHANNEL` whose ``enabled``
   is a *class attribute* ``False`` — the guard is one attribute load,
   no allocation, no branching inside the engine hot loops.
2. **Deterministic.**  Events are timestamped with ``env.now`` and
   appended in execution order.  Two runs with the same seed produce
   byte-identical exports (wall-clock is opt-in metadata only).
3. **Zero dependencies.**  Pure stdlib; exporters live in
   :mod:`repro.trace.export`, test helpers in
   :mod:`repro.trace.assertions`.

Usage::

    tracer = Tracer()
    with tracing(tracer):
        env = Environment()          # env.trace is now a live channel
        ... run simulation ...
    tracer.finalize()
    write_chrome(tracer, fh)

Component code never imports the tracer directly — it uses
``env.trace``:

    tr = env.trace
    if tr.enabled:
        span = tr.begin("drive:read", tid=self.name, args={"oid": oid})
    ...
    if tr.enabled:
        span.end()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

__all__ = [
    "NULL_CHANNEL",
    "Span",
    "TraceChannel",
    "Tracer",
    "channel_for",
    "install",
    "tracing",
    "uninstall",
]


class Span:
    """An open interval; ``end()`` records it as a Chrome "X" event.

    Spans are cheap mutable records, usable as context managers.  A span
    left open when the tracer is finalized is closed at the tracer's
    final timestamp (so aborted scenarios still export valid traces).
    """

    __slots__ = ("_tracer", "name", "cat", "tid", "args", "t0", "_done")

    def __init__(self, tracer: "Tracer", name: str, cat: str, tid: str,
                 args: Optional[dict], t0: float) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.tid = tid
        self.args = args
        self.t0 = t0
        self._done = False

    def end(self, t1: Optional[float] = None, **extra) -> None:
        if self._done:
            return
        self._done = True
        tracer = self._tracer
        if t1 is None:
            t1 = tracer.now()
        if extra:
            args = dict(self.args) if self.args else {}
            args.update(extra)
        else:
            args = self.args
        ev = {"ph": "X", "name": self.name, "ts": self.t0, "dur": t1 - self.t0}
        if self.cat:
            ev["cat"] = self.cat
        if self.tid:
            ev["tid"] = self.tid
        if args:
            ev["args"] = args
        tracer.events.append(ev)
        tracer._open.discard(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        self.end()


class TraceChannel:
    """A tracer bound to one simulation environment.

    All timestamps come from ``env.now``; multiple environments tracing
    into one tracer would interleave clocks, so a channel pins the pair.
    """

    __slots__ = ("_tracer", "_env")

    #: hot-path guard; the null channel overrides this with False
    enabled = True

    def __init__(self, tracer: "Tracer", env) -> None:
        self._tracer = tracer
        self._env = env
        tracer._env = env

    def begin(self, name: str, tid: str = "", cat: str = "",
              args: Optional[dict] = None) -> Span:
        """Open a span at the current simulated time."""
        tracer = self._tracer
        span = Span(tracer, name, cat, tid, args, self._env.now)
        tracer._open.add(span)
        return span

    def instant(self, name: str, tid: str = "", cat: str = "",
                args: Optional[dict] = None) -> None:
        """Record a point event ("i" phase)."""
        ev = {"ph": "i", "name": name, "ts": self._env.now}
        if cat:
            ev["cat"] = cat
        if tid:
            ev["tid"] = tid
        if args:
            ev["args"] = args
        self._tracer.events.append(ev)

    def counter(self, name: str, value, tid: str = "") -> None:
        """Record a counter sample ("C" phase) at the current time."""
        ev = {"ph": "C", "name": name, "ts": self._env.now,
              "args": {name: value}}
        if tid:
            ev["tid"] = tid
        self._tracer.events.append(ev)


class _NullSpan:
    """Inert span handed out by the null channel; every method no-ops."""

    __slots__ = ()

    t0 = 0.0
    name = cat = tid = ""
    args = None

    def end(self, t1=None, **extra) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


class _NullChannel:
    """Shared do-nothing channel used when tracing is off.

    Call sites guard with ``if tr.enabled:`` so these methods are rarely
    reached, but they are safe to call unguarded.
    """

    __slots__ = ()

    enabled = False

    def begin(self, name: str, tid: str = "", cat: str = "",
              args: Optional[dict] = None) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, tid: str = "", cat: str = "",
                args: Optional[dict] = None) -> None:
        pass

    def counter(self, name: str, value, tid: str = "") -> None:
        pass


_NULL_SPAN = _NullSpan()

#: the channel every Environment gets when no tracer is installed
NULL_CHANNEL = _NullChannel()


class Tracer:
    """Collects events for one traced run.

    ``events`` is an append-only list of Chrome-style event dicts with
    ``ts``/``dur`` in simulated **seconds** (exporters convert to µs).
    ``metadata`` rides along into both exporters, and so does
    :meth:`metrics_snapshot`.
    """

    def __init__(self, metadata: Optional[dict] = None) -> None:
        self.events: list[dict] = []
        self.metadata: dict = dict(metadata or {})
        self._open: set[Span] = set()
        self._env = None
        self._finalized = False

    def now(self) -> float:
        return self._env.now if self._env is not None else 0.0

    def channel(self, env) -> TraceChannel:
        return TraceChannel(self, env)

    def metrics_snapshot(self) -> dict:
        """Snapshot of the bound Environment's ``metrics`` ({} if none)."""
        return self._env.metrics.snapshot() if self._env is not None else {}

    def finalize(self) -> None:
        """Close dangling spans at the final timestamp.  Idempotent."""
        if self._finalized:
            return
        self._finalized = True
        if self._open:
            end = self.now()
            # deterministic close order: by open time, then name/tid
            for span in sorted(self._open, key=lambda s: (s.t0, s.name, s.tid)):
                span.end(max(end, span.t0), unfinished=True)
        self._open.clear()


#: process-wide active tracer; Environments constructed while one is
#: installed bind a live channel, others get NULL_CHANNEL
_ACTIVE_TRACER: Optional[Tracer] = None


def install(tracer: Tracer) -> None:
    """Make *tracer* the active tracer for new Environments."""
    global _ACTIVE_TRACER
    _ACTIVE_TRACER = tracer


def uninstall() -> None:
    global _ACTIVE_TRACER
    _ACTIVE_TRACER = None


def channel_for(env):
    """Channel for a new Environment: live if a tracer is installed."""
    if _ACTIVE_TRACER is None:
        return NULL_CHANNEL
    return _ACTIVE_TRACER.channel(env)


@contextmanager
def tracing(tracer: Optional[Tracer] = None):
    """Install *tracer* (a fresh one if None) for the ``with`` body.

    Yields the tracer; restores the previously active tracer on exit so
    nested use (tests inside traced tests) behaves.
    """
    global _ACTIVE_TRACER
    if tracer is None:
        tracer = Tracer()
    prev = _ACTIVE_TRACER
    _ACTIVE_TRACER = tracer
    try:
        yield tracer
    finally:
        _ACTIVE_TRACER = prev
