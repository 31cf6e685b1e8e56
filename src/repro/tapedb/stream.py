"""Streaming primitives for the metadata plane.

The monolithic tape index answered every ordered query by materialising
the full result (``select_prefix`` copies each row, recall sort builds
the whole dict of sorted lists).  At 10^7-10^8 files that is the
catalog-becomes-the-bottleneck failure mode CASTOR's evolution documents,
so the scaled metadata plane streams instead:

* :class:`BufferGauge` — counts entries held live by open streams and
  records the high-water mark, which is how the bounded-memory claim is
  *asserted*, not assumed (tests wrap streams in a gauge and check
  ``peak <= shards * batch``);
* :func:`merge_runs` — k-way merge of per-shard batch streams that are
  each already sorted, yielding the global order as runs (slices of one
  input's batch) while holding at most one batch per input.

The batch streams themselves come from
:meth:`repro.tapedb.engine.Table.batches`; this module only holds the
pieces shared between the monolithic and sharded indexes.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Iterator, Sequence

__all__ = ["BufferGauge", "merge_runs"]


class BufferGauge:
    """Live-entry accounting for streaming cursors.

    Cursors ``add`` a batch when they materialise it and ``sub`` it when
    the batch is fully consumed, so ``live`` is the number of rows
    currently buffered across every cursor sharing the gauge and ``peak`` is
    the high-water mark a bounded-memory proof asserts against.
    """

    __slots__ = ("live", "peak", "total")

    def __init__(self) -> None:
        self.live = 0
        self.peak = 0
        #: entries ever buffered (batch refill volume, for rate metrics)
        self.total = 0

    def add(self, n: int) -> None:
        self.live += n
        self.total += n
        if self.live > self.peak:
            self.peak = self.live

    def sub(self, n: int) -> None:
        self.live -= n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BufferGauge live={self.live} peak={self.peak}>"


def merge_runs(
    streams: Iterable[Iterable[Sequence]], key: Callable
) -> Iterator[Sequence]:
    """Stable k-way merge of sorted batch streams, yielded as runs.

    Each stream yields non-empty batches (sequences) whose items are
    sorted by *key* across the whole stream.  Flattened, the runs are
    exactly ``heapq.merge(*flattened_streams, key=key)``: items in
    *key* order, ties taken from the earlier stream first.

    The merge keeps a heap of each stream's head item.  At each step it
    yields the longest run of the smallest head's batch whose items
    still sort before the runner-up head (found by bisection), so
    streams that do not interleave — range-partitioned shards — come
    out as whole batches, and interleaved streams still merge in short
    runs.  Like ``heapq.merge`` it primes every stream's first batch
    and asks a stream for its next batch only after the caller has
    consumed the previous one, so it holds at most one batch per
    stream.
    """
    heap = []
    for order, stream in enumerate(streams):
        batches = iter(stream)
        batch = next(batches, None)
        if batch is not None:
            heap.append([key(batch[0]), order, batch, 0, batches])
    heapq.heapify(heap)
    while len(heap) > 1:
        _, order, batch, pos, batches = heap[0]
        bound, bound_order = min(heap[1:3])[:2]
        # ties go to the earlier stream, so the run may include the
        # runner-up's key only when this stream is the earlier one
        last = key(batch[-1])
        if last < bound or (last == bound and order < bound_order):
            end = len(batch)
        else:
            cut = bisect_right if order < bound_order else bisect_left
            end = cut(batch, bound, pos, key=key)
        yield batch if pos == 0 and end == len(batch) else batch[pos:end]
        if end == len(batch):
            batch, end = next(batches, None), 0
            if batch is None:
                heapq.heappop(heap)
                continue
        heapq.heapreplace(heap, [key(batch[end]), order, batch, end, batches])
    if heap:
        _, _, batch, pos, batches = heap[0]
        yield batch[pos:] if pos else batch
        yield from batches
