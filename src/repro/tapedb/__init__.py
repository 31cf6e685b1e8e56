"""Embedded indexed table engine + the tape index database.

TSM 5.5 keeps its object metadata in a proprietary database whose
(volume, tape-sequence) columns are not indexed and cannot be queried
efficiently (§4.2.5).  The paper's fix is an export job that copies the
relevant columns into MySQL with proper indexes; PFTool then asks MySQL
"which tape and where on it?" for every file to recall, and sorts
recalls into tape order.

:mod:`repro.tapedb` supplies the same capability, grown past the single
export the paper ran:

* :class:`Table` / :class:`Index` — a small in-memory table engine that
  stores each row once, as a tuple in column order, with hash +
  sorted-range indexes, predicate scans, batch streams
  (:meth:`Table.batches`) and an O(n log n) bulk :meth:`Table.load`; its
  dict API copies rows in and out, while the tape indexes read the
  stored tuples directly;
* :class:`TapeIndexDB` — the `filespace -> (volume, seq, object id)`
  schema with the queries PFTool and the synchronous deleter need,
  including the streaming recall order;
* :class:`ShardedTapeIndex` — the same surface sharded by volume range
  behind a router (:class:`VolumeRangeRouter` /
  :class:`TokenRangeRouter`) with an :class:`LruCache` of hot entries
  and a bounded-memory k-way run merge for recall order — the 10^7-10^8
  file tier (see DESIGN.md "Metadata plane");
* :class:`TsmDbExporter` — the periodic export job from a TSM server;
* :class:`BufferGauge` — live-entry accounting that lets tests *prove*
  the streaming paths hold at most ``shards x batch`` entries.
"""

from repro.tapedb.engine import Index, Table
from repro.tapedb.shard import (
    LruCache,
    ShardedTapeIndex,
    TokenRangeRouter,
    VolumeRangeRouter,
)
from repro.tapedb.stream import BufferGauge
from repro.tapedb.tapeindex import TapeIndexDB, TapeLocation, TsmDbExporter

__all__ = [
    "BufferGauge",
    "Index",
    "LruCache",
    "ShardedTapeIndex",
    "Table",
    "TapeIndexDB",
    "TapeLocation",
    "TokenRangeRouter",
    "TsmDbExporter",
    "VolumeRangeRouter",
]
