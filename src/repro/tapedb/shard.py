"""Sharded tape index: volume-range routing, LRU hot-entry cache,
streaming k-way recall order.

The paper's tape-index DB is one MySQL export; CASTOR's history is the
name-server outgrowing exactly that design.  :class:`ShardedTapeIndex`
is the next rung: the ``objects`` table is split across N shards, each a
full :class:`~repro.tapedb.engine.Table` with the same ``by_path`` /
``by_volume`` indexes, fronted by an LRU cache of hot locations.

Routing
-------
A *router* maps ``volume -> shard``.  Two deterministic routers ship:

* :class:`VolumeRangeRouter` — explicit split points over the volume
  namespace (``bisect`` over sorted boundaries), the classic range
  partition when volume naming is known (benchmarks use numbered
  volumes and even split points);
* :class:`TokenRangeRouter` — the boundary-free default: the 64-bit
  SHA-256 token of the volume name, with the token space cut into N
  contiguous ranges (Cassandra-style).  Stable across processes, no
  state, balanced for any naming scheme.

Because routing is by volume, ``by_volume`` queries touch one shard and
path/object queries either hit the cache, the ``_oid_dir`` directory
(object id -> shard, O(1)), or fan out to N indexed hash lookups.

Order contract
--------------
Every query answers **byte-identically** to a monolithic
:class:`~repro.tapedb.tapeindex.TapeIndexDB` fed the same upserts in the
same order.  The one subtlety is ties: the monolith resolves duplicate
``(volume, seq)`` keys and duplicate paths by insertion order, which a
shard cannot see globally — so every row carries ``gseq``, a global
upsert sequence number.  Streamed merges key on ``(volume, seq, gseq)``
and path lookups take the max-``gseq`` row, which is exactly the
monolith's last-write-wins.  ``tests/test_tapedb_shard_properties.py``
proves the equivalence with a hypothesis oracle.
"""

from __future__ import annotations

import bisect
import hashlib
from collections import OrderedDict
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.sim import Environment, Event
from repro.tapedb.engine import Table
from repro.tapedb.stream import merge_sorted
from repro.tapedb.tapeindex import TapeIndexDB, TapeLocation

__all__ = [
    "LruCache",
    "ShardedTapeIndex",
    "TokenRangeRouter",
    "VolumeRangeRouter",
]

_MASK64 = (1 << 64) - 1


class VolumeRangeRouter:
    """Range partition over the volume namespace.

    *boundaries* are strictly ascending split points; volume *v* routes
    to shard ``bisect_right(boundaries, v)``, giving
    ``len(boundaries) + 1`` shards.
    """

    def __init__(self, boundaries: Sequence[str]) -> None:
        self.boundaries = tuple(boundaries)
        if list(self.boundaries) != sorted(set(self.boundaries)):
            raise ValueError("boundaries must be strictly ascending")

    @property
    def n_shards(self) -> int:
        return len(self.boundaries) + 1

    def shard_of(self, volume: str) -> int:
        return bisect.bisect_right(self.boundaries, volume)

    @classmethod
    def for_numbered(
        cls, n_volumes: int, n_shards: int, prefix: str = "VOL", width: int = 6
    ) -> "VolumeRangeRouter":
        """Even split points for ``{prefix}{i:0{width}d}`` volume names."""
        if n_shards < 1:
            raise ValueError("need at least one shard")
        bounds = [
            f"{prefix}{(k * n_volumes) // n_shards:0{width}d}"
            for k in range(1, n_shards)
        ]
        return cls(bounds)

    @classmethod
    def from_sample(
        cls, volumes: Iterable[str], n_shards: int
    ) -> "VolumeRangeRouter":
        """Quantile split points from a sample of volume names."""
        sample = sorted(set(volumes))
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if len(sample) < n_shards:
            return cls(sample[1:] if len(sample) > 1 else [])
        bounds = [
            sample[(k * len(sample)) // n_shards] for k in range(1, n_shards)
        ]
        # duplicates collapse the shard count rather than erroring
        return cls(sorted(set(bounds)))


class TokenRangeRouter:
    """Range partition over the hashed token space (the default).

    The 64-bit SHA-256 token of the volume name lands in one of N equal
    contiguous token ranges.  Needs no knowledge of the naming scheme,
    is balanced for any volume population, and — unlike built-in
    ``hash()`` — is stable across processes and seeds.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = n_shards
        self._tokens: dict[str, int] = {}

    def shard_of(self, volume: str) -> int:
        shard = self._tokens.get(volume)
        if shard is None:
            token = int.from_bytes(
                hashlib.sha256(volume.encode("utf-8")).digest()[:8], "little"
            )
            shard = (token * self.n_shards) >> 64
            self._tokens[volume] = shard
        return shard


class LruCache:
    """Hot-entry LRU with hit/miss/eviction counters.

    ``capacity <= 0`` disables caching entirely (every get is a miss,
    puts are dropped) so cache-transparency tests can diff against an
    uncached twin without branching.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_data")

    _SENTINEL = object()

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()

    def get(self, key) -> tuple[bool, Any]:
        val = self._data.get(key, self._SENTINEL)
        if val is self._SENTINEL:
            self.misses += 1
            return False, None
        self._data.move_to_end(key)
        self.hits += 1
        return True, val

    def put(self, key, value) -> None:
        if self.capacity <= 0:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def invalidate(self, key) -> None:
        self._data.pop(key, None)

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<LruCache {len(self._data)}/{self.capacity} hits={self.hits} "
            f"misses={self.misses} evictions={self.evictions}>"
        )


#: columns of a shard table: the monolith's schema plus the global
#: upsert sequence number that restores cross-shard tie-breaking
_SHARD_COLUMNS = (
    "object_id",
    "path",
    "filespace",
    "volume",
    "seq",
    "nbytes",
    "inserted_at",
    "gseq",
)


class ShardedTapeIndex:
    """Drop-in :class:`TapeIndexDB` replacement, sharded by volume range.

    Same public surface (``upsert`` / ``remove`` / ``location_of`` /
    ``object_for_path`` / ``objects_on_volume`` / ``locate_many`` /
    ``sort_tape_order``) plus the streaming side
    (:meth:`iter_recall_order`, :meth:`bulk_load`) and observability
    (:attr:`cache`, :meth:`shard_sizes`, :meth:`shard_balance`, and the
    ``tapedb.*`` views it registers in ``env.metrics``).
    """

    def __init__(
        self,
        env: Environment,
        n_shards: int = 4,
        router=None,
        cache_entries: int = 4096,
        query_latency: float = 0.001,
    ) -> None:
        self.env = env
        self.router = router if router is not None else TokenRangeRouter(n_shards)
        self.n_shards = self.router.n_shards
        self.query_latency = query_latency
        self.cache = LruCache(cache_entries)
        self._tables = []
        for i in range(self.n_shards):
            t = Table(
                f"objects-s{i}", columns=_SHARD_COLUMNS, primary_key="object_id"
            )
            t.create_index("by_path", ("filespace", "path"))
            t.create_index("by_volume", ("volume", "seq"))
            self._tables.append(t)
        #: object id -> shard index (the directory; O(1) point lookups)
        self._oid_dir: dict[int, int] = {}
        #: global upsert sequence (monolith insertion order, restored)
        self._gseq = 0
        self.queries = 0
        #: rows pulled through streaming cursors (for rate metrics)
        self.stream_rows = 0
        metrics = env.metrics
        metrics.add("tapedb.queries", lambda: self.queries)
        metrics.add("tapedb.cache_hits", lambda: self.cache.hits)
        metrics.add("tapedb.cache_misses", lambda: self.cache.misses)
        metrics.add("tapedb.cache_evictions", lambda: self.cache.evictions)
        metrics.add("tapedb.stream_rows", lambda: self.stream_rows)

    # -- load side -------------------------------------------------------
    def upsert(
        self,
        object_id: int,
        path: str,
        filespace: str,
        volume: str,
        seq: int,
        nbytes: int,
    ) -> None:
        old_shard = self._oid_dir.get(object_id)
        if old_shard is not None:
            old_row = self._tables[old_shard].get(object_id)
            self._tables[old_shard].delete(object_id)
            if old_row is not None:
                self.cache.invalidate(
                    ("path", old_row["filespace"], old_row["path"])
                )
        shard = self.router.shard_of(volume)
        self._gseq += 1
        self._tables[shard].insert(
            {
                "object_id": object_id,
                "path": path,
                "filespace": filespace,
                "volume": volume,
                "seq": seq,
                "nbytes": nbytes,
                "inserted_at": self.env.now,
                "gseq": self._gseq,
            }
        )
        self._oid_dir[object_id] = shard
        self.cache.invalidate(("oid", object_id))
        self.cache.invalidate(("path", filespace, path))

    def bulk_load(self, rows: Iterable[dict]) -> int:
        """Load many ``upsert``-shaped rows at once (one sort per shard).

        Object ids must be new (seeding/import, like
        :meth:`TapeIndexDB.bulk_load`); rows are stamped with ``gseq``
        in iteration order so ordering ties resolve as if each row had
        been upserted individually.
        """
        now = self.env.now
        per_shard: list[list[dict]] = [[] for _ in range(self.n_shards)]
        placed: list[tuple[int, int]] = []
        for row in rows:
            oid = row["object_id"]
            if oid in self._oid_dir:
                raise ValueError(f"bulk_load: object {oid} already indexed")
            shard = self.router.shard_of(row["volume"])
            self._gseq += 1
            per_shard[shard].append(
                {**row, "inserted_at": now, "gseq": self._gseq}
            )
            placed.append((oid, shard))
        for table, shard_rows in zip(self._tables, per_shard):
            if shard_rows:
                table.bulk_load(shard_rows)
        for oid, shard in placed:
            self._oid_dir[oid] = shard
        return len(placed)

    def remove(self, object_id: int) -> bool:
        shard = self._oid_dir.pop(object_id, None)
        if shard is None:
            return False
        row = self._tables[shard].get(object_id)
        ok = self._tables[shard].delete(object_id)
        if row is not None:
            self.cache.invalidate(("path", row["filespace"], row["path"]))
        self.cache.invalidate(("oid", object_id))
        return ok

    def __len__(self) -> int:
        return len(self._oid_dir)

    # -- instant (logic-only) queries ------------------------------------
    def location_of(self, object_id: int) -> Optional[TapeLocation]:
        key = ("oid", object_id)
        hit, val = self.cache.get(key)
        if hit:
            return val
        shard = self._oid_dir.get(object_id)
        row = self._tables[shard].get(object_id) if shard is not None else None
        loc = self._row_to_loc(row) if row else None
        self.cache.put(key, loc)
        return loc

    def object_for_path(self, filespace: str, path: str) -> Optional[TapeLocation]:
        key = ("path", filespace, path)
        hit, val = self.cache.get(key)
        if hit:
            return val
        best = None
        for table in self._tables:
            for row in table.select_eq("by_path", filespace, path):
                if best is None or row["gseq"] > best["gseq"]:
                    best = row
        loc = self._row_to_loc(best) if best else None
        self.cache.put(key, loc)
        return loc

    def objects_on_volume(self, volume: str) -> list[TapeLocation]:
        return list(self.iter_objects_on_volume(volume))

    def iter_objects_on_volume(
        self, volume: str, batch: int = 256, gauge=None
    ) -> Iterator[TapeLocation]:
        """Stream one volume's objects in seq order — a single-shard scan."""
        table = self._tables[self.router.shard_of(volume)]
        for row in table.iter_index(
            "by_volume", prefix=(volume,), batch=batch, gauge=gauge
        ):
            self.stream_rows += 1
            yield self._row_to_loc(row)

    def iter_recall_order(
        self, batch: int = 256, gauge=None
    ) -> Iterator[TapeLocation]:
        """Stream the whole index in global (volume, seq) order.

        A k-way ``heapq`` merge over per-shard ``by_volume`` cursors.
        Each cursor materialises at most *batch* rows, so the merge
        holds at most ``n_shards * batch`` live entries no matter the
        population — the bounded-memory recall sort.  Order is
        byte-identical to the monolithic index (``gseq`` breaks
        duplicate-key ties in global insertion order).
        """
        cursors = [
            table.iter_index("by_volume", batch=batch, gauge=gauge)
            for table in self._tables
        ]
        for row in merge_sorted(
            cursors, key=lambda r: (r["volume"], r["seq"], r["gseq"])
        ):
            self.stream_rows += 1
            yield self._row_to_loc(row)

    # -- timed queries (what PFTool issues) --------------------------------
    def locate_many(self, filespace: str, paths: Sequence[str]) -> Event:
        """Batch lookup; event fires with {path: TapeLocation | None}.

        Same latency model as the monolith (one round trip plus a
        per-row increment) — sharding changes where rows live and what
        the queries cost *us*, not the simulated wire protocol — so a
        sharded site reproduces monolithic timings byte-for-byte.
        """
        done = self.env.event()

        def _proc():
            self.queries += 1
            yield self.env.timeout(self.query_latency + 1e-5 * len(paths))
            out = {p: self.object_for_path(filespace, p) for p in paths}
            done.succeed(out)

        self.env.process(_proc(), name="tapedb-locate")
        return done

    #: identical grouping semantics to the monolith (it IS the monolith's)
    sort_tape_order = staticmethod(TapeIndexDB.sort_tape_order)

    # -- observability ---------------------------------------------------
    def shard_sizes(self) -> list[int]:
        return [len(t) for t in self._tables]

    def shard_balance(self) -> float:
        """max/mean shard population (1.0 = perfectly balanced)."""
        sizes = self.shard_sizes()
        total = sum(sizes)
        if not total:
            return 1.0
        return max(sizes) / (total / len(sizes))

    @staticmethod
    def _row_to_loc(row: dict) -> TapeLocation:
        return TapeLocation(
            object_id=row["object_id"],
            path=row["path"],
            filespace=row["filespace"],
            volume=row["volume"],
            seq=row["seq"],
            nbytes=row["nbytes"],
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ShardedTapeIndex shards={self.n_shards} rows={len(self)} "
            f"cache={self.cache!r}>"
        )
