"""Property tests: the sharded tape index is monolith-transparent.

Three claims carry the metadata-plane refactor, and each is proven here
over hypothesis-generated populations rather than hand-picked examples:

* **Order identity** — ``ShardedTapeIndex.iter_recall_order`` yields the
  byte-identical sequence to flattening the monolithic index's
  ``sort_tape_order``, for any population (duplicate ``(volume, seq)``
  keys, duplicate paths, interleaved removes) and any shard count.  The
  ``gseq`` tie-break is what makes duplicate keys come out in global
  upsert order, exactly as one big insertion-ordered bucket would.
* **Cache transparency** — every lookup through the LRU hot cache
  (including negative lookups and lookups after invalidating upserts
  and removes) answers identically to an uncached index.
* **Bounded memory** — a counting gauge wrapped around the per-shard
  cursors proves the k-way merge never holds more than
  ``shards * batch`` live entries, no matter the population.
"""

import heapq
from itertools import chain
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tapedb.shard as shard_module
from repro.sim import Environment
from repro.tapedb import (
    BufferGauge,
    LruCache,
    ShardedTapeIndex,
    TapeIndexDB,
    TokenRangeRouter,
    VolumeRangeRouter,
)
from repro.tapedb.stream import merge_runs

# (volume idx, seq, path idx) — small domains on purpose: collisions in
# (volume, seq) index keys and repeated paths are the interesting cases.
ROWS = st.lists(
    st.tuples(
        st.integers(0, 7), st.integers(0, 5), st.integers(0, 30)
    ),
    max_size=60,
)
SHARDS = st.integers(1, 8)


def _vol(v: int) -> str:
    return f"V{v:03d}"


def _path(p: int) -> str:
    return f"/d/f{p:04d}"


def _populate(db, rows, removes=()):
    for oid, (v, s, p) in enumerate(rows, 1):
        db.upsert(oid, _path(p), "fs", _vol(v), s, 100 + oid)
    for oid in removes:
        if 1 <= oid <= len(rows):
            db.remove(oid)


def _oracle(rows, removes=()):
    """The pre-refactor semantics: one insertion-ordered table, recall
    order = flatten(sort_tape_order(all rows))."""
    env = Environment()
    mono = TapeIndexDB(env)
    _populate(mono, rows, removes)
    locs = [mono.location_of(r["object_id"]) for r in mono.table.scan()]
    flat = [
        loc
        for run in TapeIndexDB.sort_tape_order(locs).values()
        for loc in run
    ]
    return mono, flat


@settings(max_examples=80, deadline=None)
@given(rows=ROWS, n_shards=SHARDS, removes=st.sets(st.integers(1, 60), max_size=10))
def test_recall_order_identical_to_monolith(rows, n_shards, removes):
    mono, want = _oracle(rows, removes)
    env = Environment()
    sharded = ShardedTapeIndex(env, n_shards=n_shards, cache_entries=16)
    _populate(sharded, rows, removes)
    assert list(sharded.iter_recall_order(batch=4)) == want
    # the monolith's own streaming path agrees with its snapshot path
    assert list(mono.iter_recall_order(batch=4)) == want
    assert len(sharded) == len(want)


@settings(max_examples=60, deadline=None)
@given(rows=ROWS, n_shards=SHARDS)
def test_token_router_order_identical(rows, n_shards):
    _, want = _oracle(rows)
    env = Environment()
    sharded = ShardedTapeIndex(
        env, router=TokenRangeRouter(n_shards), cache_entries=0
    )
    _populate(sharded, rows)
    assert list(sharded.iter_recall_order(batch=3)) == want


@settings(max_examples=60, deadline=None)
@given(rows=ROWS, n_shards=SHARDS, removes=st.sets(st.integers(1, 60), max_size=10))
def test_lru_cache_is_transparent(rows, n_shards, removes):
    env = Environment()
    cached = ShardedTapeIndex(env, n_shards=n_shards, cache_entries=8)
    bare = ShardedTapeIndex(env, n_shards=n_shards, cache_entries=0)
    for db in (cached, bare):
        _populate(db, rows, removes)

    # interleave lookups with mutations so invalidation paths run hot:
    # repeat each probe to force cache hits on the second pass
    probes = list(range(1, len(rows) + 2)) * 2
    for oid in probes:
        assert cached.location_of(oid) == bare.location_of(oid)
    for _, _, p in rows:
        path = _path(p)
        assert cached.object_for_path("fs", path) == bare.object_for_path(
            "fs", path
        )
        # negative lookups are cached too — and must stay negative
        assert cached.object_for_path("other", path) is None
    # rewrite every surviving row to a new volume: the cache must not
    # serve the old location afterwards
    for oid, (v, s, p) in enumerate(rows, 1):
        if cached.location_of(oid) is None:
            continue
        for db in (cached, bare):
            db.upsert(oid, _path(p), "fs", _vol((v + 1) % 8), s + 1, 7)
        assert cached.location_of(oid) == bare.location_of(oid)
        assert cached.object_for_path("fs", _path(p)) == bare.object_for_path(
            "fs", _path(p)
        )
    assert list(cached.iter_recall_order()) == list(bare.iter_recall_order())


@settings(max_examples=60, deadline=None)
@given(rows=ROWS, n_shards=SHARDS, batch=st.integers(1, 6))
def test_streaming_merge_is_bounded(rows, n_shards, batch):
    env = Environment()
    db = ShardedTapeIndex(env, n_shards=n_shards, cache_entries=0)
    _populate(db, rows)
    gauge = BufferGauge()
    out = list(db.iter_recall_order(batch=batch, gauge=gauge))
    assert gauge.peak <= n_shards * batch
    assert gauge.live == 0  # every batch fully released
    assert gauge.total == len(out) if n_shards == 1 else gauge.total >= len(out)


# -- the run merge ---------------------------------------------------------

# one input: sorted keys (small domain, so inputs share keys) and the
# ragged batch sizes that cut it; an input may be empty
MERGE_INPUT = st.tuples(
    st.lists(st.integers(0, 6), max_size=25).map(sorted),
    st.lists(st.integers(1, 5), min_size=1, max_size=25),
)


def _cut(items, sizes):
    """*items* as batches of the given sizes (the last size repeats)."""
    out, pos = [], 0
    for size in chain(sizes, [sizes[-1]] * len(items)):
        if pos >= len(items):
            break
        out.append(items[pos:pos + size])
        pos += size
    return out


@settings(max_examples=200, deadline=None)
@given(inputs=st.lists(MERGE_INPUT, max_size=6))
def test_merge_runs_is_heapq_merge(inputs):
    # items carry (key, input, position) so the comparison sees stability
    flat = [
        [(k, i, j) for j, k in enumerate(keys)]
        for i, (keys, _) in enumerate(inputs)
    ]
    streams = [
        iter(_cut(items, sizes)) for items, (_, sizes) in zip(flat, inputs)
    ]
    key = itemgetter(0)
    runs = list(merge_runs(streams, key))
    assert all(runs)
    assert list(chain.from_iterable(runs)) == list(heapq.merge(*flat, key=key))


@pytest.mark.parametrize(
    "n, shards, batch",
    [(0, 3, 4), (1, 1, 1), (97, 4, 1), (97, 4, 8), (500, 8, 16),
     (500, 3, 512)],
)
def test_range_routed_recall_order_merges_whole_batches(
    monkeypatch, n, shards, batch
):
    """Shards holding disjoint volume ranges never interleave, so the merge
    hands out each shard batch in one step: at most ceil(n/b) + s steps,
    not one step per row."""
    steps = []

    def counted(streams, key):
        for run in merge_runs(streams, key):
            steps.append(len(run))
            yield run

    monkeypatch.setattr(shard_module, "merge_runs", counted)
    vols = 10
    db = ShardedTapeIndex(
        Environment(), router=VolumeRangeRouter.for_numbered(vols, shards),
        cache_entries=0,
    )
    db.bulk_load(
        {"object_id": i + 1, "path": f"/f{i}", "filespace": "fs",
         "volume": f"VOL{(i * 7) % vols:06d}", "seq": i % 13, "nbytes": 1}
        for i in range(n)
    )
    gauge = BufferGauge()
    got = list(db.iter_recall_order(batch=batch, gauge=gauge))
    keys = [(loc.volume, loc.seq) for loc in got]
    assert keys == sorted(keys)
    assert sum(steps) == len(got) == n
    assert len(steps) <= -(-n // batch) + shards
    assert gauge.peak <= shards * batch


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(0, 9), min_size=1, max_size=50),
    capacity=st.integers(1, 6),
)
def test_lru_eviction_and_hit_accounting(keys, capacity):
    cache = LruCache(capacity)
    model: dict[int, int] = {}
    order: list[int] = []  # LRU order, oldest first
    for k in keys:
        found, got = cache.get(k)
        if k in order:
            assert found and got == model[k]
            order.remove(k)
            order.append(k)  # refresh recency, mirroring the cache
        else:
            assert not found
        cache.put(k, k * 2)
        model[k] = k * 2
        if k in order:
            order.remove(k)
        order.append(k)
        if len(order) > capacity:
            order.pop(0)
        assert len(cache) == len(order)
    assert cache.hits + cache.misses == len(keys)


def test_volume_range_router_covers_all_shards():
    r = VolumeRangeRouter.for_numbered(n_volumes=40, n_shards=8)
    assert r.n_shards == 8
    seen = {r.shard_of(f"VOL{v:06d}") for v in range(40)}
    assert seen == set(range(8))
    # boundary volumes land in the right half-open range
    assert r.shard_of("VOL000000") == 0
    assert r.shard_of("VOL000005") == 1
