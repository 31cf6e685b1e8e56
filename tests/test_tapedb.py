"""Tests for the table engine and the tape index DB."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.tapedb import BufferGauge, Table, TapeIndexDB, TapeLocation


# ---------------------------------------------------------------------------
# table engine
# ---------------------------------------------------------------------------

def make_table():
    t = Table("t", columns=("id", "a", "b"), primary_key="id")
    t.create_index("by_a", ("a",))
    t.create_index("by_ab", ("a", "b"))
    return t


def test_insert_get_delete():
    t = make_table()
    t.insert({"id": 1, "a": "x", "b": 10})
    assert t.get(1) == {"id": 1, "a": "x", "b": 10}
    assert t.delete(1)
    assert t.get(1) is None
    assert not t.delete(1)


def test_duplicate_pk_rejected():
    t = make_table()
    t.insert({"id": 1, "a": "x", "b": 1})
    with pytest.raises(ValueError, match="duplicate key"):
        t.insert({"id": 1, "a": "y", "b": 2})


def test_schema_enforced():
    t = make_table()
    with pytest.raises(ValueError):
        t.insert({"id": 1, "a": "x"})  # missing b
    with pytest.raises(ValueError):
        t.insert({"id": 1, "a": "x", "b": 1, "z": 9})  # extra


def test_index_equality_lookup():
    t = make_table()
    for i in range(10):
        t.insert({"id": i, "a": "even" if i % 2 == 0 else "odd", "b": i})
    evens = t.select_eq("by_a", "even")
    assert sorted(r["id"] for r in evens) == [0, 2, 4, 6, 8]


def test_index_prefix_and_order():
    t = make_table()
    for i, b in enumerate([5, 3, 9, 1]):
        t.insert({"id": i, "a": "k", "b": b})
    rows = t.select_prefix("by_ab", "k")
    assert [r["b"] for r in rows] == [1, 3, 5, 9]  # key order


def test_index_range():
    t = make_table()
    for i in range(10):
        t.insert({"id": i, "a": "k", "b": i})
    rows = t.select_range("by_ab", lo=("k", 3), hi=("k", 7))
    assert [r["b"] for r in rows] == [3, 4, 5, 6]


def test_update_reindexes():
    t = make_table()
    t.insert({"id": 1, "a": "x", "b": 1})
    t.update(1, a="y")
    assert t.select_eq("by_a", "x") == []
    assert t.select_eq("by_a", "y")[0]["id"] == 1


def test_update_pk_change_rejected():
    t = make_table()
    t.insert({"id": 1, "a": "x", "b": 1})
    with pytest.raises(ValueError):
        t.update(1, id=2)


def test_create_index_backfills():
    t = Table("t", columns=("id", "a"), primary_key="id")
    t.insert({"id": 1, "a": "x"})
    idx = t.create_index("late", ("a",))
    assert len(idx) == 1
    assert t.select_eq("late", "x")[0]["id"] == 1


def test_scan_with_predicate():
    t = make_table()
    for i in range(5):
        t.insert({"id": i, "a": "k", "b": i})
    assert sorted(r["id"] for r in t.scan(lambda r: r["b"] >= 3)) == [3, 4]


def test_rows_returned_are_copies():
    t = make_table()
    t.insert({"id": 1, "a": "x", "b": 1})
    row = t.get(1)
    row["a"] = "mutated"
    assert t.get(1)["a"] == "x"


@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 5), st.integers(0, 5)),
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_index_consistent_with_scan(ops):
    """Index lookups always agree with a full scan, under mixed ops."""
    t = make_table()
    present = set()
    for pk, a, b in ops:
        if pk in present:
            t.delete(pk)
            present.discard(pk)
        else:
            t.insert({"id": pk, "a": a, "b": b})
            present.add(pk)
    for a in range(6):
        via_index = sorted(r["id"] for r in t.select_eq("by_a", a))
        via_scan = sorted(r["id"] for r in t.scan(lambda r: r["a"] == a))
        assert via_index == via_scan


# -- the row store against a plain-dict model ----------------------------

# (op, pk, a, b): small domains so index keys collide and buckets grow
# from a bare rowid to a list and back
ROW_OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "load", "delete", "update_a", "update_b"]),
        st.integers(0, 12),
        st.integers(0, 2),
        st.integers(0, 2),
    ),
    max_size=80,
)


class _RecordingGauge(BufferGauge):
    def __init__(self):
        super().__init__()
        self.adds = []

    def add(self, n):
        self.adds.append(n)
        super().add(n)


def _model_apply(t, model, op, pk, a, b):
    """Apply one op to the table and the model; the keys it wrote, in
    write order."""
    if op == "insert":
        if pk in model:
            return []
        t.insert({"id": pk, "a": a, "b": b})
        model[pk] = {"id": pk, "a": a, "b": b}
        return [pk]
    if op == "load":
        # two rows in one load; a key already present fails it whole
        rows = [{"id": pk, "a": a, "b": b},
                {"id": (pk + 1) % 13, "a": b, "b": a}]
        if any(r["id"] in model for r in rows):
            with pytest.raises(ValueError, match="duplicate key"):
                t.bulk_load(rows)
            return []
        assert t.bulk_load(rows) == 2
        model.update((r["id"], dict(r)) for r in rows)
        return [r["id"] for r in rows]
    if op == "delete":
        assert t.delete(pk) == (model.pop(pk, None) is not None)
        return []
    col, value = ("a", a) if op == "update_a" else ("b", b)
    ok = t.update(pk, **{col: value})
    assert ok == (pk in model)
    if ok:
        model[pk][col] = value
    return [pk] if ok else []


def _key_counts(model, cols):
    counts: dict = {}
    for r in model.values():
        key = tuple(r[c] for c in cols)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _model_order(model, stamp, cols, keep=lambda key: True):
    """The model's rows in index order: by key, then by last write (an
    insert or update appends the row to the end of every bucket)."""
    rows = [r for r in model.values() if keep(tuple(r[c] for c in cols))]
    rows.sort(key=lambda r: (tuple(r[c] for c in cols), stamp[r["id"]]))
    return rows


INDEXES = (("by_a", ("a",)), ("by_ab", ("a", "b")))


@given(
    ROW_OPS,
    st.integers(1, 4),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
@settings(max_examples=150, deadline=None)
def test_row_store_matches_dict_model(ops, batch, lo, hi):
    t = make_table()
    model: dict = {}
    stamp: dict = {}
    for i, (op, pk, a, b) in enumerate(ops):
        for j, written in enumerate(_model_apply(t, model, op, pk, a, b)):
            stamp[written] = (i, j)
        assert len(t) == len(model)
        # buckets: a bare rowid for a unique key, a list only when shared
        for name, cols in INDEXES:
            idx = t.index(name)
            counts = _key_counts(model, cols)
            assert idx._sorted_keys == sorted(counts)
            assert len(idx) == len(counts)
            for key, n in counts.items():
                assert (type(idx._hash[key]) is int) == (n == 1)
                assert len(idx.lookup(key)) == n

    for name, cols in INDEXES:
        for key in _key_counts(model, cols):
            want = _model_order(model, stamp, cols, lambda k: k == key)
            assert t.select_eq(name, *key) == want
            found = t.find(name, *key)
            assert [dict(zip(t.columns, row)) for row in found] == want
            assert t.newest(name)(key) is found[-1]
        assert t.newest(name)(("absent",) * len(cols)) is None

        want_all = _model_order(model, stamp, cols)
        gauge = _RecordingGauge()
        assert list(t.iter_index(name, batch=batch, gauge=gauge)) == want_all
        # the cursor flushes at exactly *batch* rows, even inside a bucket
        assert sum(gauge.adds) == len(want_all)
        assert all(n == batch for n in gauge.adds[:-1])
        assert gauge.live == 0

    for a in range(3):
        want = _model_order(model, stamp, ("a", "b"), lambda k: k[0] == a)
        assert t.select_prefix("by_ab", a) == want
        assert list(t.iter_index("by_ab", prefix=(a,), batch=batch)) == want
    want = _model_order(model, stamp, ("a", "b"), lambda k: lo <= k < hi)
    assert t.select_range("by_ab", lo, hi) == want

    # every returned row is the caller's own copy
    returned = [t.get(pk) for pk in model]
    returned += t.select_eq("by_a", 0) + t.select_prefix("by_ab", 1)
    returned += t.select_range("by_ab", lo, hi) + list(t.scan())
    returned += list(t.iter_index("by_ab", batch=batch))
    for row in returned:
        row["a"] = row["b"] = "mutated"
    assert sorted(t.scan(), key=lambda r: r["id"]) == [
        model[pk] for pk in sorted(model)
    ]
    assert t.select_eq("by_a", "mutated") == []


# ---------------------------------------------------------------------------
# tape index DB
# ---------------------------------------------------------------------------

def test_tapeindex_roundtrip_and_order():
    env = Environment()
    db = TapeIndexDB(env)
    db.upsert(1, "/a", "fs", "V1", 3, 100)
    db.upsert(2, "/b", "fs", "V1", 1, 200)
    db.upsert(3, "/c", "fs", "V2", 1, 300)
    assert db.location_of(1).volume == "V1"
    assert db.object_for_path("fs", "/b").object_id == 2
    vol1 = db.objects_on_volume("V1")
    assert [l.seq for l in vol1] == [1, 3]


def test_tapeindex_upsert_replaces():
    env = Environment()
    db = TapeIndexDB(env)
    db.upsert(1, "/a", "fs", "V1", 1, 100)
    db.upsert(1, "/a", "fs", "V9", 7, 100)
    assert db.location_of(1).volume == "V9"
    assert len(db) == 1


def test_tapeindex_locate_many_charges_time():
    env = Environment()
    db = TapeIndexDB(env, query_latency=0.01)
    db.upsert(1, "/a", "fs", "V1", 1, 100)

    res = env.run(db.locate_many("fs", ["/a", "/missing"]))
    assert res["/a"].seq == 1
    assert res["/missing"] is None
    assert env.now >= 0.01
    assert db.queries == 1


def test_sort_tape_order_groups_and_sorts():
    locs = [
        TapeLocation(1, "/a", "fs", "V2", 2, 1),
        TapeLocation(2, "/b", "fs", "V1", 9, 1),
        TapeLocation(3, "/c", "fs", "V2", 1, 1),
        TapeLocation(4, "/d", "fs", "V1", 4, 1),
    ]
    ordered = TapeIndexDB.sort_tape_order(locs)
    assert list(ordered) == ["V1", "V2"]
    assert [l.seq for l in ordered["V1"]] == [4, 9]
    assert [l.seq for l in ordered["V2"]] == [1, 2]


# -- streaming regression: the recall sort must not materialise ----------

def test_recall_order_is_lazy_and_bounded():
    """Regression for the full-sorted-copy recall path.

    Consuming only the head of ``iter_recall_order`` must touch at most
    one batch per shard — the old implementation sorted the whole index
    up front, which at 10^7-10^8 files is the metadata-plane wall the
    M* benchmarks measure.
    """
    from repro.tapedb import BufferGauge, ShardedTapeIndex

    env = Environment()
    pop, shards, batch = 5000, 4, 16
    db = ShardedTapeIndex(env, n_shards=shards, cache_entries=0)
    db.bulk_load(
        {
            "object_id": i + 1,
            "path": f"/f{i}",
            "filespace": "fs",
            "volume": f"V{i % 40:03d}",
            "seq": i // 40,
            "nbytes": 1,
        }
        for i in range(pop)
    )
    gauge = BufferGauge()
    it = db.iter_recall_order(batch=batch, gauge=gauge)
    head = [next(it) for _ in range(batch)]
    assert len(head) == batch
    # only the cursors' working batches are live, not the population
    assert gauge.peak <= shards * batch
    assert gauge.peak < 0.10 * pop
    it.close()

    # monolithic index: same laziness through the same cursor machinery
    mono = TapeIndexDB(env)
    mono.bulk_load(
        {
            "object_id": i + 1,
            "path": f"/f{i}",
            "filespace": "fs",
            "volume": f"V{i % 40:03d}",
            "seq": i // 40,
            "nbytes": 1,
        }
        for i in range(pop)
    )
    g2 = BufferGauge()
    it2 = mono.iter_recall_order(batch=batch, gauge=g2)
    assert next(it2).volume == "V000"
    assert g2.peak <= batch
    it2.close()


def test_bulk_load_matches_upserts():
    env = Environment()
    a, b = TapeIndexDB(env), TapeIndexDB(env)
    rows = [
        {"object_id": i + 1, "path": f"/f{i % 5}", "filespace": "fs",
         "volume": f"V{i % 3}", "seq": i, "nbytes": 10 * i}
        for i in range(30)
    ]
    for r in rows:
        a.upsert(r["object_id"], r["path"], r["filespace"], r["volume"],
                 r["seq"], r["nbytes"])
    assert b.bulk_load(rows) == 30
    assert list(a.iter_recall_order()) == list(b.iter_recall_order())
    with pytest.raises(Exception):
        b.bulk_load([rows[0]])  # duplicate object id


def _loc_row(oid, volume, seq=1, path=None):
    return {"object_id": oid, "path": path or f"/f{oid}", "filespace": "fs",
            "volume": volume, "seq": seq, "nbytes": 1}


def test_sharded_bulk_load_rejects_an_id_repeated_across_shards():
    """One load holding an object on two shards' volumes is refused whole:
    each shard's table sees only one copy, so only the index can tell."""
    from repro.tapedb import ShardedTapeIndex, VolumeRangeRouter

    db = ShardedTapeIndex(Environment(), router=VolumeRangeRouter(["V5"]))
    with pytest.raises(ValueError):
        db.bulk_load([_loc_row(1, "V1"), _loc_row(1, "V9")])
    assert len(db) == 0
    assert db.shard_sizes() == [0, 0]
    assert list(db.iter_recall_order()) == []
    assert db.location_of(1) is None


def test_sharded_bulk_load_is_all_or_nothing():
    """A load that fails on a later shard leaves no earlier shard loaded,
    and a corrected retry stamps the same rows a fresh index would."""
    from repro.tapedb import ShardedTapeIndex, VolumeRangeRouter

    def fresh():
        return ShardedTapeIndex(
            Environment(), router=VolumeRangeRouter(["V5"])
        )

    db = fresh()
    db.bulk_load([_loc_row(9, "V2")])
    good = [_loc_row(1, "V1"), _loc_row(2, "V7"), _loc_row(3, "V8")]
    # object 2 twice, both copies on shard 1; then an id already indexed
    for bad in (good + [_loc_row(2, "V8", seq=2)], good + [_loc_row(9, "V1")]):
        with pytest.raises(ValueError):
            db.bulk_load(bad)
        assert len(db) == 1
        assert db.shard_sizes() == [1, 0]
        assert [loc.object_id for loc in db.iter_recall_order()] == [9]
    assert db.bulk_load(good) == 3
    want = fresh()
    want.bulk_load([_loc_row(9, "V2")] + good)
    assert [t._rows for t in db._tables] == [t._rows for t in want._tables]
    assert db.remove(1) and db.location_of(1) is None
