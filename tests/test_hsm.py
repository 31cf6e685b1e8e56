"""Tests for HSM migration, recall routing, and reconciliation.

Key scenarios also run traced and assert causal properties (drive-mount
exclusivity, migrate-before-recall ordering) via
:class:`repro.trace.assertions.TraceAssertions`.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.disksim import DiskArray
from repro.hsm import HsmManager, ReconcileAgent
from repro.pfs import GpfsFileSystem, HsmState, StoragePool
from repro.sim import Environment
from repro.tapesim import TapeLibrary, TapeSpec
from repro.trace import tracing
from repro.trace.assertions import TraceAssertions
from repro.tsm import TsmServer

SPEC = TapeSpec(
    native_rate=100e6,
    load_time=10.0,
    unload_time=10.0,
    rewind_full=50.0,
    seek_base=1.0,
    locate_rate=1e9,
    label_verify=5.0,
    backhitch=2.0,
    capacity=1000e9,
)


def build_stack(env, nodes=("fta0", "fta1"), n_drives=2, routing="naive"):
    fs = GpfsFileSystem(env, "archive", metadata_op_time=0.0)
    arrays = [
        DiskArray(env, f"arr{i}", capacity_bytes=1e14, bandwidth=500e6, seek_time=0.0)
        for i in range(2)
    ]
    fs.add_pool(StoragePool("fast", arrays), default=True)
    lib = TapeLibrary(env, n_drives=n_drives, spec=SPEC, n_scratch=16,
                      robot_exchange=5.0)
    tsm = TsmServer(env, lib, txn_time=0.005)
    hsm = HsmManager(env, fs, tsm, nodes=list(nodes), recall_routing=routing)
    return fs, tsm, hsm


def seed_files(env, fs, n, size, prefix="/data/f"):
    def go():
        fs.mkdir("/data")
        for i in range(n):
            yield fs.write_file("fta0", f"{prefix}{i}", size)

    env.run(env.process(go()))


def test_migrate_punches_stubs_and_frees_disk():
    with tracing() as tracer:
        env = Environment()
        fs, tsm, hsm = build_stack(env)
        seed_files(env, fs, 3, 10_000_000)
        pool = fs.pool("fast")
        assert pool.used_bytes == 30_000_000
        receipts = env.run(hsm.migrate("fta0", [f"/data/f{i}" for i in range(3)]))
    assert len(receipts) == 3
    for i in range(3):
        assert fs.lookup(f"/data/f{i}").hsm_state is HsmState.MIGRATED
    assert pool.used_bytes == 0
    assert hsm.files_migrated == 3
    # trace: one migrate span covering three tape stores, drive writes
    # strictly serialized per drive
    ta = TraceAssertions(tracer)
    ta.span_count("hsm:migrate", expect=1)
    ta.span_count("tsm:store", expect=3)
    ta.no_overlap("drive:write", per="tid")
    ta.no_overlap("drive:mounted", per="tid")
    assert tracer.metrics.counter("hsm.files_migrated").value == 3


def test_migrate_without_punch_premigrates():
    env = Environment()
    fs, tsm, hsm = build_stack(env)
    seed_files(env, fs, 1, 1_000_000)
    env.run(hsm.migrate("fta0", ["/data/f0"], punch=False))
    inode = fs.lookup("/data/f0")
    assert inode.hsm_state is HsmState.PREMIGRATED
    assert fs.pool("fast").used_bytes == 1_000_000


def test_migrate_skips_existing_stubs():
    env = Environment()
    fs, tsm, hsm = build_stack(env)
    seed_files(env, fs, 1, 1_000_000)
    env.run(hsm.migrate("fta0", ["/data/f0"]))
    receipts = env.run(hsm.migrate("fta0", ["/data/f0"]))
    assert receipts == []


def test_recall_restores_data():
    env = Environment()
    fs, tsm, hsm = build_stack(env)
    seed_files(env, fs, 1, 50_000_000)
    env.run(hsm.migrate("fta0", ["/data/f0"]))

    inode = env.run(hsm.recall("/data/f0"))
    assert inode.hsm_state is HsmState.PREMIGRATED
    assert fs.pool("fast").used_bytes == 50_000_000
    assert hsm.files_recalled == 1


def test_recall_of_resident_file_is_noop():
    env = Environment()
    fs, tsm, hsm = build_stack(env)
    seed_files(env, fs, 1, 1000)
    inode = env.run(hsm.recall("/data/f0"))
    assert inode.hsm_state is HsmState.RESIDENT
    assert hsm.files_recalled == 0


def test_transparent_recall_via_fs_read():
    """Reading a stub transparently recalls it (DMAPI integration)."""
    env = Environment()
    fs, tsm, hsm = build_stack(env)
    seed_files(env, fs, 1, 10_000_000)
    env.run(hsm.migrate("fta0", ["/data/f0"]))
    t0 = env.now
    _, token = env.run(fs.read_file("fta0", "/data/f0"))
    assert env.now > t0  # paid the tape locate + stream
    assert fs.recalls_triggered == 1
    assert hsm.files_recalled == 1


def test_aggregated_migration_faster_for_small_files():
    env = Environment()
    fs, tsm, hsm = build_stack(env)
    seed_files(env, fs, 30, 8_000_000)
    paths = [f"/data/f{i}" for i in range(30)]
    t0 = env.now
    env.run(hsm.migrate("fta0", paths[:15], aggregate=False))
    t_per_file = env.now - t0
    t0 = env.now
    env.run(hsm.migrate("fta0", paths[15:], aggregate=True))
    t_agg = env.now - t0
    assert t_per_file / t_agg > 3


def test_naive_routing_thrashes_sticky_does_not():
    """§6.2: same-tape recalls spread across nodes cause handoff rewinds."""

    def run(routing):
        with tracing() as tracer:
            env = Environment()
            fs, tsm, hsm = build_stack(env, routing=routing, n_drives=1)
            seed_files(env, fs, 12, 20_000_000)
            paths = [f"/data/f{i}" for i in range(12)]
            env.run(hsm.migrate("fta0", paths))  # all on one tape
            t0 = env.now
            env.run(hsm.recall_many(paths))
        # even with two recall daemons fighting over the single drive,
        # its operations and mount intervals never overlap, and every
        # migrate finished before any recall touched the volume
        ta = TraceAssertions(tracer)
        assert ta.span_count("hsm:recall") == 12
        ta.no_overlap("drive:mounted", per="tid")
        ta.no_overlap("drive:read", per="tid")
        ta.happens_before("hsm:migrate", "hsm:recall")
        return env.now - t0, tsm.library.total_handoff_rewinds

    t_naive, rw_naive = run("naive")
    t_sticky, rw_sticky = run("sticky")
    # sticky pays at most the single migrate->recall client switch;
    # naive pays a handoff on nearly every recall.
    assert rw_sticky <= 1
    assert rw_naive > rw_sticky + 5
    assert t_naive > t_sticky


def test_sticky_routing_ignores_the_hash_seed():
    """A volume's recall node must not change with the interpreter's
    string-hash seed, or sticky-routing results would vary per process."""
    code = (
        "from repro.sim import Environment\n"
        "from tests.test_hsm import build_stack\n"
        "nodes = tuple(f'fta{i}' for i in range(6))\n"
        "_, _, hsm = build_stack(Environment(), nodes=nodes, routing='sticky')\n"
        "print([hsm._route_node(f'VOL{v:03d}') for v in range(32)])\n"
    )
    root = pathlib.Path(__file__).resolve().parent.parent
    routes = {
        subprocess.run(
            [sys.executable, "-c", code], cwd=root, check=True,
            capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed,
                 "PYTHONPATH": str(root / "src")},
        ).stdout
        for seed in ("1", "2")
    }
    assert len(routes) == 1


def test_recall_failure_propagates_but_daemon_survives():
    env = Environment()
    fs, tsm, hsm = build_stack(env, nodes=("fta0",))
    seed_files(env, fs, 2, 1_000_000)
    env.run(hsm.migrate("fta0", ["/data/f0", "/data/f1"]))
    # sabotage one object
    inode = fs.lookup("/data/f0")
    env.run(tsm.delete_object(inode.tsm_object_id))
    with pytest.raises(Exception):
        env.run(hsm.recall("/data/f0"))
    # daemon must still serve the healthy file
    ok = env.run(hsm.recall("/data/f1"))
    assert ok.hsm_state is HsmState.PREMIGRATED


def test_invalid_configs():
    env = Environment()
    fs, tsm, _ = build_stack(env)
    with pytest.raises(Exception):
        HsmManager(env, fs, tsm, nodes=[])
    with pytest.raises(Exception):
        HsmManager(env, fs, tsm, nodes=["x"], recall_routing="psychic")


# ---------------------------------------------------------------------------
# reconcile
# ---------------------------------------------------------------------------

def test_reconcile_finds_and_deletes_orphans():
    env = Environment()
    fs, tsm, hsm = build_stack(env)
    seed_files(env, fs, 4, 1_000_000)
    paths = [f"/data/f{i}" for i in range(4)]
    env.run(hsm.migrate("fta0", paths))
    # delete two files from the FS only -> orphans on tape
    env.run(fs.unlink_op("/data/f0"))
    env.run(fs.unlink_op("/data/f1"))
    agent = ReconcileAgent(env, fs, tsm)
    report = env.run(agent.run())
    assert report.orphans_found == 2
    assert report.orphans_deleted == 2
    assert report.files_walked >= 3  # /, /data, two survivors
    # survivors still resolvable
    assert tsm.locate(fs.lookup("/data/f2").tsm_object_id) is not None


def test_reconcile_duration_scales_with_tree_size():
    env = Environment()
    fs, tsm, hsm = build_stack(env)
    seed_files(env, fs, 50, 1000)
    agent = ReconcileAgent(env, fs, tsm, per_file_cost=0.01)
    report = env.run(agent.run())
    assert report.duration >= 0.01 * 50
    assert report.orphans_found == 0


def test_reconcile_report_counts_tsm_side():
    env = Environment()
    fs, tsm, hsm = build_stack(env)
    seed_files(env, fs, 3, 1000)
    env.run(hsm.migrate("fta0", [f"/data/f{i}" for i in range(3)]))
    agent = ReconcileAgent(env, fs, tsm)
    report = env.run(agent.run(delete_orphans=False))
    assert report.tsm_objects_checked == 3
    assert report.orphans_deleted == 0


def test_recall_many_tape_order_via_sharded_index():
    """Tape-ordered recall served from the sharded index's hot cache.

    The §4.1.2 optimisation now streams its (volume, seq) sort through
    the metadata plane: ``recall_many(tape_order=True, tapedb=...)``
    looks locations up in the (sharded, LRU-cached) index and falls
    back to TSM's catalog only for rows the export hasn't landed yet.
    Both sources must produce the same recalls.
    """
    from repro.tapedb import ShardedTapeIndex

    env = Environment()
    fs, tsm, hsm = build_stack(env, n_drives=1, routing="sticky")
    seed_files(env, fs, 12, 100e6)
    paths = [f"/data/f{i}" for i in range(12)]
    env.run(hsm.migrate("fta0", paths))

    db = ShardedTapeIndex(env, n_shards=3, cache_entries=64)
    for i, p in enumerate(paths[:9]):  # export lag: last 3 missing
        obj = tsm.locate(fs.lookup(p).tsm_object_id)
        db.upsert(obj.object_id, p, hsm.filespace, obj.volume, obj.seq,
                  obj.nbytes)

    done = hsm.recall_many(paths, tape_order=True, tapedb=db)
    env.run(done)
    assert hsm.files_recalled == 12
    assert all(fs.lookup(p).hsm_state is HsmState.PREMIGRATED for p in paths)
    # the index actually served lookups (missed only the stale rows)
    assert db.cache.hits + db.cache.misses >= 9
