"""Streaming primitives for the metadata plane.

The monolithic tape index answered every ordered query by materialising
the full result (``select_prefix`` copies each row, recall sort builds
the whole dict of sorted lists).  At 10^7-10^8 files that is the
catalog-becomes-the-bottleneck failure mode CASTOR's evolution documents,
so the scaled metadata plane streams instead:

* :class:`BufferGauge` — counts entries held live by open cursors and
  records the high-water mark, which is how the bounded-memory claim is
  *asserted*, not assumed (tests wrap cursors in a gauge and check
  ``peak <= shards * batch``);
* :func:`merge_locations` — heapq k-way merge of per-shard cursors that
  are already sorted by ``(volume, seq, gseq)``, yielding the global
  recall order while holding at most one batch per shard.

Cursors themselves live on :meth:`repro.tapedb.engine.Table.cursor`;
this module only holds the pieces shared between the monolithic and
sharded indexes.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator, Optional

__all__ = ["BufferGauge", "merge_sorted"]


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


def merge_sorted(
    iterables: Iterable[Iterator],
    key: Optional[Callable] = None,
) -> Iterator:
    """K-way merge of already-sorted iterators (thin heapq.merge wrapper).

    ``heapq.merge`` is lazy and stable: it holds exactly one element per
    input plus whatever batch each input generator has materialised, so a
    merge over shard cursors with batch size *b* never holds more than
    ``shards * b`` entries — the invariant :class:`BufferGauge` checks.
    """
    return heapq.merge(*iterables, key=key)
