"""Per-layer attribution for the traced run: host self time and spans.

Two recorders, both kept in memory and summarised when the run ends:

* :class:`LayerSampler` is a CPU-time sampling profiler.  An
  ``ITIMER_PROF`` signal fires every ``interval`` seconds of process CPU
  time; the handler charges the CPU time used since the previous sample
  to the layer of the innermost interesting frame.  Frames of the
  standard library, numpy and generated code (``<string>``) are skipped
  outwards, so a ``heapq`` call made by the kernel is charged to ``sim``
  and a ``sorted`` inside ``tapedb`` to ``tapedb``.  A ``repro/<pkg>/``
  frame is charged to ``<pkg>``; a frame of this benchmark to
  ``other``.  The charged deltas add up to the whole profiled CPU time,
  so the buckets account for all of it.
* :class:`Spans` records host-time spans that the workloads open around
  their calls into a layer's public entry points.  A span's self time
  is its duration minus the time its child spans cover.

Untimed runs use :data:`NO_SPANS`, whose ``span`` is a shared no-op
context manager.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager, nullcontext

__all__ = ["LAYERS", "LayerSampler", "NO_SPANS", "Spans"]

#: the repro packages reported one by one; other repro packages are
#: pooled as ``repro_other`` and frames outside repro as ``other``
LAYERS = (
    "sim", "netsim", "pfs", "disksim", "pftool", "mpisim", "scheduler",
    "tsm", "hsm", "tapesim", "tapedb", "trace",
)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class LayerSampler:
    """Charge process CPU time to the ``repro.<layer>`` package running."""

    def __init__(self, interval: float = 0.001) -> None:
        self.interval = interval
        #: bucket -> CPU seconds (named layers, repro packages, "other")
        self.cpu_s: dict[str, float] = {}
        self.samples = 0
        self._bucket_of_file: dict[str, str | None] = {}
        self._last = 0.0
        self._old_handler = None

    def _bucket(self, filename: str) -> str | None:
        """Layer of a source file, or None for frames to skip outwards."""
        b = self._bucket_of_file.get(filename, "?")
        if b != "?":
            return b
        path = filename.replace("\\", "/")
        i = path.rfind("/src/repro/")
        if os.path.dirname(os.path.abspath(filename)) == _BENCH_DIR:
            b = "other"
        elif i >= 0:
            pkg = path[i + 11:].split("/", 1)[0]
            b = pkg[:-3] if pkg.endswith(".py") else pkg
        else:
            b = None
        self._bucket_of_file[filename] = b
        return b

    def _on_signal(self, _signum, frame) -> None:
        now = time.process_time()
        delta, self._last = now - self._last, now
        self.samples += 1
        bucket = "other"
        while frame is not None:
            b = self._bucket(frame.f_code.co_filename)
            if b is not None:
                bucket = b
                break
            frame = frame.f_back
        self.cpu_s[bucket] = self.cpu_s.get(bucket, 0.0) + delta

    def start(self) -> None:
        self._last = time.process_time()
        self._old_handler = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._old_handler or signal.SIG_DFL)
        # the tail since the last sample belongs to the code that called stop
        tail = time.process_time() - self._last
        self.cpu_s["other"] = self.cpu_s.get("other", 0.0) + tail


class Spans:
    """Host-time spans around the benchmark's calls into the layers."""

    enabled = True

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1), in start order
        self.records: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self.records.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[idx][2] = time.perf_counter()

    def summary(self) -> dict[str, dict]:
        """name -> {count, total_s, self_s} over every recorded span."""
        child_s = [0.0] * len(self.records)
        for name, t0, t1, parent in self.records:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out: dict[str, dict] = {}
        for (name, t0, t1, _p), kids in zip(self.records, child_s):
            s = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            s["count"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += t1 - t0 - kids
        return out


class _NoSpans:
    enabled = False
    _null = nullcontext()

    def span(self, _name: str):
        return self._null

    def summary(self) -> dict:
        return {}


NO_SPANS = _NoSpans()
