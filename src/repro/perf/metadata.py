"""M* metadata-plane scenarios: the tape index at archive scale.

The paper's site archives ~10^8 files; §4.2.1 measures the GPFS inode
scan at 10^6 inodes / 10 minutes and §4.1.2's tape-ordered restores
depend on a DB2 query over the whole TSM object catalog.  These
scenarios put the reproduced metadata plane (``repro.tapedb``) under
that population pressure:

* ``m1_index_scan`` — bulk-seed a sharded index and stream the entire
  catalog in global ``(volume, seq)`` recall order through the k-way
  merge, proving the scan is bounded-memory (peak live entries is a
  *headline*, not a hope);
* ``m2_recall_sort`` — a PFTool-style locate storm through the LRU hot
  cache (hot working set + cold scatter), then the full streaming
  recall sort; headlines include the deterministic cache hit/miss split
  and the merge's peak live-entry count;
* ``m3_reconcile`` — the §4.4 failure-domain chore at scale: stream the
  index against a deterministic "deleted upstream" predicate, collect
  orphans, then purge them.

Populations default to 10^5 (CI perf-smoke tier) and scale through
``REPRO_M_POP`` — the metadata-smoke CI job runs 10^6.  All *headline*
values (counts, CRC-32 order checksums, shard balance, cache hit rate,
simulated end times) are machine-independent and population-keyed
goldens.
"""

from __future__ import annotations

import os
import zlib
from typing import Iterator

from repro.perf import ScenarioOutcome, scenario
from repro.sim import Environment, SimulationError
from repro.tapedb import BufferGauge, ShardedTapeIndex, VolumeRangeRouter

__all__ = ["m1_index_scan", "m2_recall_sort", "m3_reconcile", "synth_rows"]

#: population tier — perf-smoke runs the default; metadata-smoke sets 10^6
M_POP = int(os.environ.get("REPRO_M_POP", "100000"))
#: shard count for the M* family (paper-site scale-out, not the default 4)
M_SHARDS = 8
#: cursor batch: peak live entries per scan is bounded by M_SHARDS * M_BATCH
M_BATCH = 512
#: objects per tape volume (LTO-4 at ~1 GB objects is O(10^3)/cartridge)
FILES_PER_VOLUME = 2000

#: simulated catalog streaming rate, rows/s — the paper's DB2 SELECT over
#: the backup-objects table sustains O(10^5) rows/s once the plan is an
#: index-ordered scan; charged per cursor batch
CATALOG_SCAN_RATE = 250_000.0
#: simulated per-orphan DELETE cost (row + two index entries)
DELETE_COST = 40e-6


def _mix64(x: int) -> int:
    """splitmix64 finaliser — deterministic scatter without an RNG."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def n_volumes(pop: int) -> int:
    return max(1, (pop + FILES_PER_VOLUME - 1) // FILES_PER_VOLUME)


def synth_path(i: int) -> str:
    return f"/m/d{i >> 10:05d}/f{i:08d}"


def synth_rows(pop: int, seed: int) -> Iterator[dict]:
    """Deterministic bulk-load rows: *pop* files scattered over volumes.

    Each file lands on a mixed-hash volume with a per-volume increasing
    ``seq`` — the insertion pattern a migrator produces (per-volume
    append order) but interleaved across volumes, so the global recall
    sort has real merging to do.  Pure arithmetic hashing: no RNG state,
    identical on every platform.
    """
    vols = n_volumes(pop)
    next_seq = [0] * vols
    for i in range(pop):
        v = _mix64(seed ^ (i * 0x2545F4914F6CDD1D)) % vols
        next_seq[v] += 1
        yield {
            "object_id": i + 1,
            "path": synth_path(i),
            "filespace": "archive",
            "volume": f"VOL{v:06d}",
            "seq": next_seq[v],
            "nbytes": 1024 + (_mix64(i) & 0xFFFFF),
        }


def _build_index(env: Environment, pop: int, seed: int) -> ShardedTapeIndex:
    vols = n_volumes(pop)
    shards = min(M_SHARDS, vols)  # tiny tiers: no empty range shards
    db = ShardedTapeIndex(
        env,
        n_shards=shards,
        router=VolumeRangeRouter.for_numbered(vols, shards),
        cache_entries=4096,
    )
    db.bulk_load(synth_rows(pop, seed))
    return db


def _stream_all(env: Environment, db: ShardedTapeIndex, gauge: BufferGauge):
    """Process: stream the full recall order, charging catalog time.

    Returns (count, crc) through a one-element list closure is avoided —
    the caller reads the mutated ``stats`` dict after ``env.run()``.
    """
    stats = {"count": 0, "crc": 0}

    def _proc():
        crc = 0
        pending = 0
        for loc in db.iter_recall_order(batch=M_BATCH, gauge=gauge):
            crc = zlib.crc32(
                f"{loc.volume}|{loc.seq}|{loc.object_id}".encode(), crc
            )
            stats["count"] += 1
            pending += 1
            if pending == M_BATCH:
                yield env.timeout(pending / CATALOG_SCAN_RATE)
                pending = 0
        if pending:
            yield env.timeout(pending / CATALOG_SCAN_RATE)
        stats["crc"] = crc

    env.process(_proc(), name="catalog-scan")
    return stats


def _check_bounded(gauge: BufferGauge, pop: int) -> None:
    """The bounded-memory claim, asserted in the bench itself."""
    bound = M_SHARDS * M_BATCH
    if gauge.peak > bound:
        raise SimulationError(
            f"streaming merge held {gauge.peak} live entries > "
            f"{M_SHARDS} shards x {M_BATCH} batch = {bound}"
        )
    if pop >= 10 * bound and gauge.peak >= 0.10 * pop:
        raise SimulationError(
            f"peak live entries {gauge.peak} >= 10% of population {pop}"
        )


@scenario("m1_index_scan")
def m1_index_scan(pop: int = 0) -> ScenarioOutcome:
    """Bulk-seed the sharded index, stream the full recall order."""
    pop = pop or M_POP
    env = Environment()
    db = _build_index(env, pop, seed=90210)
    gauge = BufferGauge()
    stats = _stream_all(env, db, gauge)
    env.run()
    _check_bounded(gauge, pop)
    if stats["count"] != len(db):
        raise SimulationError(
            f"scan yielded {stats['count']} of {len(db)} rows"
        )
    sizes = db.shard_sizes()
    db.publish_metrics()
    return ScenarioOutcome(
        env=env,
        headline={
            "files": float(pop),
            "volumes": float(n_volumes(pop)),
            "order_crc": float(stats["crc"]),
            "peak_live": float(gauge.peak),
            "shard_max": float(max(sizes)),
            "shard_min": float(min(sizes)),
            "shard_balance": round(db.shard_balance(), 6),
            "end_time": round(env.now, 9),
        },
        notes=f"{M_SHARDS} shards, batch {M_BATCH}",
    )


@scenario("m2_recall_sort")
def m2_recall_sort(pop: int = 0) -> ScenarioOutcome:
    """Locate storm through the LRU cache, then the streaming recall sort."""
    pop = pop or M_POP
    env = Environment()
    db = _build_index(env, pop, seed=4561)
    # A PFTool restore job's lookup mix: a hot working set (metadata for
    # the directories being walked, smaller than the cache) revisited
    # across batches, plus a cold scatter over the whole population.
    hot = min(1024, pop)
    n_batches, per_batch = 64, 256
    lookups = {"hits": 0}

    def _pick(b: int, j: int) -> str:
        h = _mix64((b * per_batch + j) ^ 0xD1B54A32D192ED03)
        if h & 3:  # 3 of 4 lookups stay in the hot set
            return synth_path(h % hot)
        return synth_path(h % pop)

    def _storm():
        for b in range(n_batches):
            paths = [_pick(b, j) for j in range(per_batch)]
            got = yield db.locate_many("archive", paths)
            lookups["hits"] += sum(1 for v in got.values() if v is not None)

    env.process(_storm(), name="locate-storm")
    env.run()
    cache_hits, cache_misses = db.cache.hits, db.cache.misses
    gauge = BufferGauge()
    stats = _stream_all(env, db, gauge)
    env.run()
    _check_bounded(gauge, pop)
    db.publish_metrics()
    return ScenarioOutcome(
        env=env,
        headline={
            "files": float(pop),
            "lookups": float(n_batches * per_batch),
            "found": float(lookups["hits"]),
            "cache_hits": float(cache_hits),
            "cache_misses": float(cache_misses),
            "cache_hit_rate": round(db.cache.hit_rate, 6),
            "peak_live": float(gauge.peak),
            "order_crc": float(stats["crc"]),
            "end_time": round(env.now, 9),
        },
        notes=f"hot set {hot}, cache 4096",
    )


@scenario("m3_reconcile")
def m3_reconcile(pop: int = 0) -> ScenarioOutcome:
    """Stream the catalog against a deletion predicate, purge orphans."""
    pop = pop or M_POP
    env = Environment()
    db = _build_index(env, pop, seed=7788)

    def _deleted(i: int) -> bool:
        # ~3% of files were deleted upstream (GPFS side) — pure function
        # of the file index, so the orphan set is machine-independent.
        return _mix64(i ^ 0xA0761D6478BD642F) % 1000 < 30

    result = {"orphans": 0, "crc": 0, "scanned": 0}

    def _proc():
        orphan_ids = []
        crc = 0
        pending = 0
        # Collect during the stream, mutate after: Table.iter_index is
        # a positional cursor, not a snapshot.
        for loc in db.iter_recall_order(batch=M_BATCH):
            result["scanned"] += 1
            pending += 1
            if _deleted(loc.object_id - 1):
                orphan_ids.append(loc.object_id)
                crc = zlib.crc32(str(loc.object_id).encode(), crc)
            if pending == M_BATCH:
                yield env.timeout(pending / CATALOG_SCAN_RATE)
                pending = 0
        if pending:
            yield env.timeout(pending / CATALOG_SCAN_RATE)
        yield env.timeout(len(orphan_ids) * DELETE_COST)
        for oid in orphan_ids:
            db.remove(oid)
        result["orphans"] = len(orphan_ids)
        result["crc"] = crc

    env.process(_proc(), name="reconcile")
    env.run()
    if result["scanned"] != pop:
        raise SimulationError(
            f"reconcile scanned {result['scanned']} of {pop} rows"
        )
    db.publish_metrics()
    return ScenarioOutcome(
        env=env,
        headline={
            "files": float(pop),
            "orphans": float(result["orphans"]),
            "orphan_crc": float(result["crc"]),
            "remaining": float(len(db)),
            "end_time": round(env.now, 9),
        },
    )
