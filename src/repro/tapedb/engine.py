"""A tiny indexed table engine (the MySQL stand-in).

A :class:`Table` stores each row once, as a tuple of its values in
``columns`` order, enforces that schema and maintains secondary
:class:`Index` es (hash for equality, sorted arrays for range scans via
:mod:`bisect`) keyed by column positions.  Just enough SQL-shaped
capability for the archive: equality lookups, ordered range scans,
predicate filters, deletes by key.

The table has one core that speaks stored tuples — :meth:`Table.put`,
:meth:`Table.load`, :meth:`Table.row`, :meth:`Table.pop`,
:meth:`Table.find`, :meth:`Table.newest`, :meth:`Table.batches` and
:meth:`Table.cursor` over it — which hands out the stored rows
themselves (tuples are immutable, so no copy is needed).
The dict API (:meth:`Table.insert`, :meth:`Table.bulk_load`,
:meth:`Table.get`, the ``select_*`` queries, :meth:`Table.iter_index`,
:meth:`Table.scan`) is a thin layer over that core: it takes
``{column: value}`` dicts and returns fresh ones the caller may mutate.
"""

from __future__ import annotations

import bisect
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional, Sequence

__all__ = ["Index", "Table"]

Row = dict


def _getter(keys: Sequence) -> Callable[[Any], tuple]:
    """``row -> tuple(row[k] for k in keys)``, always a tuple."""
    if len(keys) == 1:
        (k,) = keys
        return lambda row: (row[k],)
    return itemgetter(*keys)


class Index:
    """Secondary index over one or more columns.

    Maintains both a hash map (equality) and a sorted key list (ordered
    iteration / range queries).  Keys are tuples of the column values,
    read from a stored row at *positions*.  A hash bucket is a bare
    rowid while its key is unique and becomes a list of rowids, in
    insertion order, only while the key is shared.
    """

    def __init__(
        self, name: str, columns: Sequence[str], positions: Sequence[int]
    ) -> None:
        if not columns:
            raise ValueError("index needs at least one column")
        self.name = name
        self.columns = tuple(columns)
        self.key_of = _getter(tuple(positions))
        self._hash: dict[tuple, int | list[int]] = {}
        self._sorted_keys: list[tuple] = []

    def _link(self, rowid: int, key: tuple) -> bool:
        """Add *rowid* to *key*'s bucket; True when the key is new."""
        bucket = self._hash.get(key)
        if bucket is None:
            self._hash[key] = rowid
            return True
        if bucket.__class__ is int:
            self._hash[key] = [bucket, rowid]
        else:
            bucket.append(rowid)
        return False

    def add(self, rowid: int, row: tuple) -> None:
        key = self.key_of(row)
        if self._link(rowid, key):
            bisect.insort(self._sorted_keys, key)

    def remove(self, rowid: int, row: tuple) -> None:
        key = self.key_of(row)
        bucket = self._hash.get(key)
        if bucket is None:
            return
        if bucket.__class__ is not int:
            if rowid in bucket:
                bucket.remove(rowid)
                if len(bucket) == 1:
                    self._hash[key] = bucket[0]
            return
        if bucket != rowid:
            return
        del self._hash[key]
        i = bisect.bisect_left(self._sorted_keys, key)
        if i < len(self._sorted_keys) and self._sorted_keys[i] == key:
            self._sorted_keys.pop(i)

    def _ids(self, key: tuple) -> Sequence[int]:
        bucket = self._hash.get(key, ())
        return (bucket,) if bucket.__class__ is int else bucket

    def lookup(self, key: tuple) -> list[int]:
        return list(self._ids(key))

    def range(
        self, lo: Optional[tuple] = None, hi: Optional[tuple] = None
    ) -> Iterator[int]:
        """Row ids with lo <= key < hi, in key order."""
        start = 0 if lo is None else bisect.bisect_left(self._sorted_keys, lo)
        stop = (
            len(self._sorted_keys)
            if hi is None
            else bisect.bisect_left(self._sorted_keys, hi)
        )
        for key in self._sorted_keys[start:stop]:
            yield from self._ids(key)

    def prefix(self, prefix: tuple) -> Iterator[int]:
        """Row ids whose key starts with *prefix*, in key order."""
        start = bisect.bisect_left(self._sorted_keys, prefix)
        for key in self._sorted_keys[start:]:
            if key[: len(prefix)] != prefix:
                break
            yield from self._ids(key)

    def __len__(self) -> int:
        return len(self._sorted_keys)


class Table:
    """A schema'd in-memory table with a primary key and secondary indexes."""

    def __init__(
        self, name: str, columns: Sequence[str], primary_key: str
    ) -> None:
        if primary_key not in columns:
            raise ValueError(f"primary key {primary_key!r} not in columns")
        self.name = name
        self.columns = tuple(columns)
        self.primary_key = primary_key
        self._pk_pos = self.columns.index(primary_key)
        self._colset = frozenset(self.columns)
        self._pack_dict = _getter(self.columns)
        self._rows: dict[int, tuple] = {}
        self._next_rowid = 1
        self._pk: dict[Hashable, int] = {}
        self._indexes: dict[str, Index] = {}

    # -- schema ----------------------------------------------------------
    def create_index(self, name: str, columns: Sequence[str]) -> Index:
        if name in self._indexes:
            raise ValueError(f"duplicate index {name!r}")
        idx = Index(name, columns, [self.columns.index(c) for c in columns])
        for rowid, row in self._rows.items():
            idx.add(rowid, row)
        self._indexes[name] = idx
        return idx

    def index(self, name: str) -> Index:
        try:
            return self._indexes[name]
        except KeyError:
            raise KeyError(f"table {self.name}: no index {name!r}") from None

    # -- the tuple core: stored rows, in ``columns`` order ---------------
    def _check(self, row: tuple) -> Hashable:
        """Validate a row's arity; return its primary key."""
        if len(row) != len(self.columns):
            raise ValueError(
                f"table {self.name}: row has {len(row)} values, "
                f"schema has {len(self.columns)} columns"
            )
        return row[self._pk_pos]

    def put(self, row: tuple) -> int:
        """Insert one row; returns its rowid."""
        row = tuple(row)
        pk = self._check(row)
        if pk in self._pk:
            raise ValueError(f"table {self.name}: duplicate key {pk!r}")
        rowid = self._next_rowid
        self._next_rowid += 1
        self._rows[rowid] = row
        self._pk[pk] = rowid
        for idx in self._indexes.values():
            idx.add(rowid, row)
        return rowid

    def load(self, rows: Iterable[tuple]) -> int:
        """Insert many rows at once, rebuilding indexes with one sort.

        Row-at-a-time :meth:`put` pays one ``bisect.insort`` per new
        index key — O(n) list movement each, O(n^2) for a load — which
        caps the table around 10^5 rows.  A load stages every row,
        links it into the index hash buckets, then re-sorts each key
        list once: O(n log n) total, the difference between minutes and
        milliseconds at 10^6-10^7 rows.  Arity and duplicate-key checks
        are identical to :meth:`put`; on error nothing is applied.
        """
        staged: list[tuple] = []
        seen: set = set()
        for row in rows:
            row = tuple(row)
            pk = self._check(row)
            if pk in self._pk or pk in seen:
                raise ValueError(f"table {self.name}: duplicate key {pk!r}")
            seen.add(pk)
            staged.append(row)
        del seen  # free the key set before the indexes grow
        pk_pos = self._pk_pos
        for row in staged:
            rowid = self._next_rowid
            self._next_rowid += 1
            self._rows[rowid] = row
            self._pk[row[pk_pos]] = rowid
            for idx in self._indexes.values():
                idx._link(rowid, idx.key_of(row))
        for idx in self._indexes.values():
            idx._sorted_keys = sorted(idx._hash)
        return len(staged)

    def row(self, pk: Hashable) -> Optional[tuple]:
        """The stored row with primary key *pk*, or None."""
        rowid = self._pk.get(pk)
        return None if rowid is None else self._rows[rowid]

    def pop(self, pk: Hashable) -> Optional[tuple]:
        """Delete the row with primary key *pk*; return it, or None."""
        rowid = self._pk.pop(pk, None)
        if rowid is None:
            return None
        row = self._rows.pop(rowid)
        for idx in self._indexes.values():
            idx.remove(rowid, row)
        return row

    def find(self, index_name: str, *key: Any) -> list[tuple]:
        """Stored rows whose *index_name* key equals *key*, oldest first."""
        rows = self._rows
        return [rows[r] for r in self.index(index_name)._ids(key)]

    def newest(self, index_name: str) -> Callable[[tuple], Optional[tuple]]:
        """A point lookup ``key -> stored row`` over *index_name*.

        The returned function answers the most recently written row
        whose key equals *key* (the last of :meth:`find`), or None.  It
        is bound to the index once, so each call is one hash probe: the
        form for a lookup repeated over many tables or many keys.
        """
        buckets = self.index(index_name)._hash
        rows = self._rows

        def newest(key: tuple) -> Optional[tuple]:
            bucket = buckets.get(key)
            if bucket is None:
                return None
            return rows[bucket if bucket.__class__ is int else bucket[-1]]

        return newest

    def batches(
        self,
        index_name: str,
        prefix: Optional[Sequence[Any]] = None,
        batch: int = 256,
        gauge=None,
    ) -> Iterator[list[tuple]]:
        """Stream stored rows in index-key order as lists of *batch* rows.

        The walk is positional over the sorted key list: each step takes
        the next keys' hash buckets in one slice, so a run of unique keys
        costs no per-row Python work.  Every list holds exactly *batch*
        rows but the last, even when a batch boundary falls inside a
        shared key's bucket.  *gauge* is an optional
        :class:`repro.tapedb.stream.BufferGauge`, credited when a batch
        is handed out and debited when the caller asks for the next one,
        which is how bounded-memory tests measure the stream.

        Streams are **not** snapshots: do not mutate the table while one
        is open (key positions would shift mid-walk).
        """
        if batch <= 0:
            raise ValueError("batch must be positive")
        idx = self.index(index_name)
        keys, buckets, rows = idx._sorted_keys, idx._hash, self._rows
        if prefix is None:
            pos, stop = 0, len(keys)
        else:
            prefix = tuple(prefix)
            n = len(prefix)
            pos = bisect.bisect_left(keys, prefix)
            stop = bisect.bisect_right(keys, prefix, pos, key=lambda k: k[:n])
        buf: list[tuple] = []
        shared: Sequence[int] = ()  # a shared bucket's rowids not yet taken
        taken = 0
        while pos < stop or taken < len(shared):
            need = batch - len(buf)
            if taken < len(shared):
                buf += map(rows.__getitem__, shared[taken:taken + need])
                taken += need
            else:
                end = min(pos + need, stop)
                ids = list(map(buckets.__getitem__, keys[pos:end]))
                if list in map(type, ids):
                    # stop before the first shared bucket; take it next
                    i = list(map(type, ids)).index(list)
                    shared, taken = ids[i], 0
                    del ids[i:]
                    pos += i + 1
                else:
                    pos += len(ids)
                buf += map(rows.__getitem__, ids)
            if len(buf) == batch:
                if gauge is not None:
                    gauge.add(batch)
                yield buf
                if gauge is not None:
                    gauge.sub(batch)
                buf = []
        if buf:
            if gauge is not None:
                gauge.add(len(buf))
            yield buf
            if gauge is not None:
                gauge.sub(len(buf))

    def cursor(
        self,
        index_name: str,
        prefix: Optional[Sequence[Any]] = None,
        batch: int = 256,
        gauge=None,
    ) -> Iterator[tuple]:
        """:meth:`batches`, flattened: stored rows one at a time, in
        index-key order, with at most *batch* of them buffered."""
        return chain.from_iterable(
            self.batches(index_name, prefix, batch, gauge)
        )

    # -- the dict API ----------------------------------------------------
    def _pack(self, row: Row) -> tuple:
        if row.keys() != self._colset:
            missing = self._colset - set(row)
            extra = set(row) - self._colset
            raise ValueError(
                f"table {self.name}: bad columns (missing={sorted(missing)}, "
                f"extra={sorted(extra)})"
            )
        return self._pack_dict(row)

    def _dict(self, row: tuple) -> Row:
        return dict(zip(self.columns, row))

    def insert(self, row: Row) -> int:
        return self.put(self._pack(row))

    def bulk_load(self, rows: Iterable[Row]) -> int:
        """:meth:`load` for dict rows (schema-checked like :meth:`insert`)."""
        return self.load(map(self._pack, rows))

    def get(self, pk: Hashable) -> Optional[Row]:
        row = self.row(pk)
        return None if row is None else self._dict(row)

    def delete(self, pk: Hashable) -> bool:
        return self.pop(pk) is not None

    def update(self, pk: Hashable, **changes: Any) -> bool:
        rowid = self._pk.get(pk)
        if rowid is None:
            return False
        if self.primary_key in changes and changes[self.primary_key] != pk:
            raise ValueError("cannot change the primary key")
        unknown = changes.keys() - self._colset
        if unknown:
            raise ValueError(
                f"table {self.name}: unknown columns {sorted(unknown)}"
            )
        old = self._rows[rowid]
        new = tuple(changes.get(c, v) for c, v in zip(self.columns, old))
        for idx in self._indexes.values():
            idx.remove(rowid, old)
        self._rows[rowid] = new
        for idx in self._indexes.values():
            idx.add(rowid, new)
        return True

    def select_eq(self, index_name: str, *key: Any) -> list[Row]:
        return [self._dict(row) for row in self.find(index_name, *key)]

    def select_prefix(self, index_name: str, *prefix: Any) -> list[Row]:
        idx = self.index(index_name)
        return [self._dict(self._rows[r]) for r in idx.prefix(tuple(prefix))]

    def select_range(
        self,
        index_name: str,
        lo: Optional[tuple] = None,
        hi: Optional[tuple] = None,
    ) -> list[Row]:
        idx = self.index(index_name)
        return [self._dict(self._rows[r]) for r in idx.range(lo, hi)]

    def iter_index(
        self,
        index_name: str,
        prefix: Optional[Sequence[Any]] = None,
        batch: int = 256,
        gauge=None,
    ) -> Iterator[Row]:
        """:meth:`cursor` yielding row copies; the streaming counterpart
        of :meth:`select_prefix` / :meth:`select_range`."""
        return map(self._dict, self.cursor(index_name, prefix, batch, gauge))

    def scan(self, where: Optional[Callable[[Row], bool]] = None) -> Iterator[Row]:
        """Full table scan (what the un-indexed TSM DB forces you into)."""
        for stored in self._rows.values():
            row = self._dict(stored)
            if where is None or where(row):
                yield row

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"<Table {self.name} rows={len(self)} indexes={sorted(self._indexes)}>"
