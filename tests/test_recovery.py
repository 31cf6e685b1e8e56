"""Crash-recovery tests: journal, crash faults, two-phase delete windows,
migration-lease adoption, and journal-based pfcp resume.

The crash windows are hit deterministically with the journal's
``after_append`` hook: the instant a record of interest is appended, the
test schedules a kill via ``env.call_later`` — the kill runs as its own
kernel callback, so a component is never asked to kill itself from
inside its own append.
"""

import pytest

from repro.archive import ArchiveParams, ParallelArchiveSystem
from repro.faults import CrashFault, FaultPlan
from repro.pftool import PftoolConfig
from repro.recovery import JobJournal
from repro.recovery.chaos import run_chaos
from repro.sim import Environment
from repro.tapesim import TapeSpec
from repro.workloads.persistence import load_journal, save_journal

GB = 1_000_000_000
MB = 1_000_000

FAST_SPEC = TapeSpec(
    native_rate=120e6, load_time=5.0, unload_time=5.0, rewind_full=20.0,
    seek_base=0.5, locate_rate=10e9, label_verify=2.0, backhitch=1.0,
    capacity=800 * GB,
)


def small_site(env, **over):
    kw = dict(
        n_fta=4, n_disk_servers=2, n_tape_drives=4, n_scratch_tapes=16,
        tape_spec=FAST_SPEC, metadata_op_time=0.0002,
    )
    kw.update(over)
    return ParallelArchiveSystem(env, ArchiveParams(**kw))


def seed_scratch(env, system, layout):
    def go():
        for path, size in sorted(layout.items()):
            parent = path.rsplit("/", 1)[0] or "/"
            system.scratch_fs.mkdir(parent, parents=True)
            yield system.scratch_fs.write_file("scratch", path, size)

    env.run(env.process(go()))


def cfg_small(**over):
    kw = dict(num_workers=4, num_readdir=1, num_tapeprocs=2, stat_batch=8,
              copy_batch=4, watchdog_interval=10.0, stall_timeout=120.0)
    kw.update(over)
    return PftoolConfig(**kw)


LAYOUT = {f"/d/small/f{i}": (3 + i) * MB for i in range(4)}
LAYOUT["/d/big"] = 40 * MB  # chunked at threshold 16MB / chunk 4MB
TOTAL_BYTES = sum(LAYOUT.values())

CHUNKY = dict(chunk_threshold=16 * MB, copy_chunk_size=4 * MB)


def arch_snapshot(system):
    """path -> (size, matches-source-token) for live files under /arch."""
    out = {}
    for path, inode in system.archive_fs.walk("/"):
        if not inode.is_file or not path.startswith("/arch/"):
            continue
        src = system.scratch_fs.lookup("/d/" + path[len("/arch/"):])
        out[path] = (inode.size, inode.content_token == src.content_token)
    return out


def orphan_oids(system):
    """Active TSM objects no live archive inode references."""
    live = {
        inode.tsm_object_id
        for _p, inode in system.archive_fs.walk("/")
        if inode.is_file and inode.tsm_object_id is not None
    }
    return [
        row["object_id"] for row in system.tsm.export_rows()
        if row["filespace"] == system.params.filespace
        and row["object_id"] not in live
    ]


# ----------------------------------------------------------------------
# JobJournal unit tests
# ----------------------------------------------------------------------

def test_journal_views_track_records():
    j = JobJournal()
    j.open_job("copy", "/d", "/arch", src_fs="scratch", dst_fs="archive")
    j.record_chunk("/arch/big", 0, 4 * MB, 8 * MB)
    j.record_chunk("/arch/big", 4 * MB, 4 * MB, 8 * MB)
    j.record_file("/d/a", "/arch/a", 1000)
    assert j.job_meta["op"] == "copy"
    assert j.chunk_ranges("/arch/big") == {(0, 4 * MB), (4 * MB, 4 * MB)}
    assert j.file_done("/arch/a", 1000)
    assert not j.file_done("/arch/a", 999)
    assert j.completed_files() == {"/arch/a": 1000}
    assert j.bytes_recorded() == 8 * MB + 1000

    iid = j.delete_intent("/.trash/root/t1", "/arch/a", 7)
    assert [i.state for i in j.dangling_deletes()] == ["intent"]
    j.delete_fs_done(iid)
    assert [i.state for i in j.dangling_deletes()] == ["fs_done"]
    j.delete_done(iid)
    assert j.dangling_deletes() == []

    lid = j.migration_lease("fta00", ["/arch/a"], punch=True)
    assert [l.paths for l in j.dangling_leases()] == [("/arch/a",)]
    j.migration_done(lid)
    assert j.dangling_leases() == []
    assert len(j) == 9


def test_journal_truncate_is_a_prefix_snapshot():
    j = JobJournal()
    j.open_job("copy", "/d", "/arch")
    iid = j.delete_intent("/.trash/root/t1", "/arch/a", 7)
    j.delete_fs_done(iid)
    j.delete_done(iid)
    # cut between fs_done and done: the intent dangles in state fs_done
    cut = j.truncate(3)
    assert len(cut) == 3
    assert [i.state for i in cut.dangling_deletes()] == ["fs_done"]
    # the original is untouched
    assert j.dangling_deletes() == []
    # id counters re-seed past the replayed prefix: no collision
    nxt = cut.delete_intent("/.trash/root/t2", "/arch/b", None)
    assert nxt > iid


def test_journal_codec_roundtrip(tmp_path):
    j = JobJournal()
    j.open_job("copy", "/d", "/arch", src_fs="scratch", dst_fs="archive")
    j.record_chunk("/arch/big", 0, 4 * MB, 8 * MB)
    iid = j.delete_intent("/.trash/root/t1", "/arch/a", 3)
    j.delete_fs_done(iid)
    j.migration_lease("fta01", ["/arch/x", "/arch/y"], punch=False)

    path = save_journal(j, tmp_path / "journal.json")
    back = load_journal(path)
    assert [(r.seq, r.type, r.data) for r in back.records] == \
        [(r.seq, r.type, r.data) for r in j.records]
    assert back.job_meta == j.job_meta
    assert back.chunk_ranges("/arch/big") == j.chunk_ranges("/arch/big")
    assert [i.state for i in back.dangling_deletes()] == ["fs_done"]
    assert [l.node for l in back.dangling_leases()] == ["fta01"]

    (tmp_path / "bogus.json").write_text('{"format": "nope", "records": []}')
    with pytest.raises(ValueError):
        load_journal(tmp_path / "bogus.json")


# ----------------------------------------------------------------------
# crash faults
# ----------------------------------------------------------------------

def test_crash_fault_fires_at_registered_target():
    env = Environment()
    system = small_site(env)
    inj = system.inject_faults(FaultPlan(3).crash(at=5.0, target="boom"))
    seen = []
    inj.register_crash_target("boom", seen.append)
    env.run()
    assert len(seen) == 1 and isinstance(seen[0], CrashFault)
    assert env.now == pytest.approx(5.0)
    assert inj.injected == {"crash": 1}
    assert inj.crash_misses == []


def test_crash_with_no_registered_target_is_a_recorded_miss():
    env = Environment()
    system = small_site(env)
    inj = system.inject_faults(FaultPlan(3).crash(at=5.0, target="ghost"))
    env.run()
    assert inj.injected == {}
    assert [c.target for c in inj.crash_misses] == ["ghost"]


# ----------------------------------------------------------------------
# pfcp crash + journal resume
# ----------------------------------------------------------------------

def _oracle_archive():
    """Uncrashed reference run: (duration, {path: size})."""
    env = Environment()
    system = small_site(env)
    seed_scratch(env, system, LAYOUT)
    job = system.archive("/d", "/arch", cfg_small(**CHUNKY))
    stats = env.run(job.done)
    sizes = {p: sz for p, (sz, _ok) in arch_snapshot(system).items()}
    return stats.duration, sizes


def test_manager_crash_then_resume_is_byte_identical():
    duration, want_sizes = _oracle_archive()

    env = Environment()
    system = small_site(env)
    seed_scratch(env, system, LAYOUT)
    journal = JobJournal(env)
    job = system.archive("/d", "/arch", cfg_small(**CHUNKY), journal=journal)
    env.call_later(0.45 * duration, job.crash)
    with pytest.raises(CrashFault):
        env.run(job.done)
    assert job.stats.aborted
    env.run()  # drain torn I/O

    rjob = system.resume_job(journal, cfg_small(**CHUNKY))
    stats2 = env.run(rjob.done)
    assert not stats2.aborted

    snap = arch_snapshot(system)
    assert {p: sz for p, (sz, _ok) in snap.items()} == want_sizes
    assert all(ok for _sz, ok in snap.values())
    # the resume consulted the journal instead of re-copying everything
    assert stats2.files_skipped + stats2.journal_chunks_skipped > 0
    assert stats2.bytes_copied < TOTAL_BYTES


def test_crash_after_completion_leaves_stats_alone():
    env = Environment()
    system = small_site(env)
    seed_scratch(env, system, {f"/d/f{i}": MB for i in range(3)})
    job = system.archive("/d", "/arch", cfg_small())
    env.call_later(1000, job.crash)
    stats = env.run(job.done)
    assert not stats.aborted
    env.run()  # the late crash fires here
    assert env.now >= 1000
    assert stats.aborted is False
    assert stats.abort_reason == ""


def test_worker_crash_watchdog_abort_then_resume():
    duration, want_sizes = _oracle_archive()

    env = Environment()
    system = small_site(env)
    seed_scratch(env, system, LAYOUT)
    journal = JobJournal(env)
    job = system.archive("/d", "/arch", cfg_small(**CHUNKY), journal=journal)
    env.call_later(0.45 * duration,
                   lambda: job.crash_rank(job.worker_ranks[0]))
    stats = env.run(job.done)  # the WatchDog stall-aborts; done still fires
    assert stats.aborted

    rjob = system.resume_job(journal, cfg_small(**CHUNKY))
    stats2 = env.run(rjob.done)
    assert not stats2.aborted
    snap = arch_snapshot(system)
    assert {p: sz for p, (sz, _ok) in snap.items()} == want_sizes
    assert all(ok for _sz, ok in snap.values())


def test_resume_from_complete_journal_recopies_nothing():
    env = Environment()
    system = small_site(env)
    seed_scratch(env, system, LAYOUT)
    journal = JobJournal(env)
    job = system.archive("/d", "/arch", cfg_small(**CHUNKY), journal=journal)
    stats = env.run(job.done)
    assert stats.files_copied == len(LAYOUT)

    rjob = system.resume_job(journal, cfg_small(**CHUNKY))
    stats2 = env.run(rjob.done)
    assert stats2.bytes_copied == 0
    assert stats2.files_copied == 0
    assert stats2.files_skipped == len(LAYOUT)


# ----------------------------------------------------------------------
# two-phase delete crash windows
# ----------------------------------------------------------------------

def _migrated_site():
    """A site with LAYOUT archived and migrated to tape."""
    env = Environment()
    system = small_site(env)
    seed_scratch(env, system, LAYOUT)
    env.run(system.archive("/d", "/arch", cfg_small(**CHUNKY)).done)
    env.run(system.migrate_to_tape())
    return env, system


def test_deleter_crash_between_phases_keeps_entry_visible():
    """Satellite: a deleter death after the GPFS unlink but before the
    TSM delete must leave the trashcan entry visible (with its
    ``tsm_object_id``) so recovery can finish the tape side."""
    env, system = _migrated_site()
    entry = system.user_delete("/arch/small/f0")

    def hook(rec):
        if rec.type == "delete_fs_done":
            system.journal.after_append = None
            env.call_later(0.0, system.deleter.crash)

    system.journal.after_append = hook
    system.sweep_trash()  # the sweep's done event dies with the deleter
    env.run()

    # mid-protocol state: fs side gone, entry still visible + attributed
    assert not system.archive_fs.exists(entry.trash_path)
    assert entry.trash_path in system.trashcan.entries
    assert system.trashcan.entries[entry.trash_path].tsm_object_id is not None
    assert system.trashcan.entries[entry.trash_path].deleting
    assert [i.state for i in system.journal.dangling_deletes()] == ["fs_done"]
    # a half-deleted entry must not be undeletable
    assert not system.trashcan.undelete("/arch/small/f0")

    report = env.run(system.recover())
    assert report.delete_intents_found == 1
    assert system.journal.dangling_deletes() == []
    assert entry.trash_path not in system.trashcan.entries
    assert orphan_oids(system) == []


def test_deleter_crash_right_after_intent_recovers_both_sides():
    env, system = _migrated_site()
    entry = system.user_delete("/arch/small/f1")

    def hook(rec):
        if rec.type == "delete_intent":
            system.journal.after_append = None
            env.call_later(0.0, system.deleter.crash)

    system.journal.after_append = hook
    system.sweep_trash()
    env.run()
    assert len(system.journal.dangling_deletes()) == 1

    report = env.run(system.recover())
    assert report.delete_intents_found == 1
    assert not system.archive_fs.exists(entry.trash_path)
    assert entry.trash_path not in system.trashcan.entries
    assert system.journal.dangling_deletes() == []
    assert orphan_oids(system) == []


def test_recovery_replays_unlink_for_untouched_intent():
    """Crash before either side applied: recovery replays the unlink,
    then reconciles the tape side — exactly one targeted lookup."""
    env, system = _migrated_site()
    entry = system.user_delete("/arch/small/f2")
    system.journal.delete_intent(
        entry.trash_path, entry.original_path, entry.tsm_object_id
    )
    assert system.archive_fs.exists(entry.trash_path)

    report = env.run(system.recover())
    assert report.delete_intents_found == 1
    assert report.fs_unlinks_replayed == 1
    assert report.targeted_lookups == 1
    assert not system.archive_fs.exists(entry.trash_path)
    assert entry.trash_path not in system.trashcan.entries
    assert orphan_oids(system) == []


# ----------------------------------------------------------------------
# migration-lease adoption
# ----------------------------------------------------------------------

def test_recovery_adopts_orphaned_migration_batch():
    """Receipts lost after the stores landed server-side: the dangling
    lease lets recovery adopt the tape objects back onto the inodes."""
    env, system = _migrated_site()
    path = "/arch/small/f3"
    inode = system.archive_fs.lookup(path)
    assert inode.tsm_object_id is not None
    # simulate "stored but receipts never applied"
    inode.tsm_object_id = None
    system.journal.migration_lease("fta00", [path], punch=True)

    report = env.run(system.recover())
    assert report.migration_leases_found == 1
    assert report.objects_adopted == 1
    assert report.files_unmigrated == []
    inode = system.archive_fs.lookup(path)
    assert inode.tsm_object_id is not None
    assert inode.is_stub  # the lease's punch was re-applied
    assert system.journal.dangling_leases() == []
    assert orphan_oids(system) == []


def test_recovery_leaves_storeless_lease_for_remigration():
    env, system = _migrated_site()
    env.run(system.archive_fs.write_file("fta0", "/arch/fresh", 2 * MB))
    system.journal.migration_lease("fta0", ["/arch/fresh"], punch=False)

    report = env.run(system.recover())
    assert report.migration_leases_found == 1
    assert report.objects_adopted == 0
    assert report.files_unmigrated == ["/arch/fresh"]
    assert system.journal.dangling_leases() == []
    # the next policy run picks it up
    env.run(system.migrate_to_tape())
    assert system.archive_fs.lookup("/arch/fresh").tsm_object_id is not None


def test_migrator_crash_mid_batch_adopt_and_remigrate():
    env = Environment()
    system = small_site(env)
    seed_scratch(env, system, LAYOUT)
    env.run(system.archive("/d", "/arch", cfg_small(**CHUNKY)).done)

    def hook(rec):
        if rec.type == "lease":
            system.journal.after_append = None
            # past store submission, before any receipt applies
            env.call_later(1.5, system.migrator.crash)

    system.journal.after_append = hook
    system.migrate_to_tape()  # its done event dies with the migrator
    env.run()  # server-side stores run to completion
    assert len(system.journal.dangling_leases()) >= 1

    report = env.run(system.recover())
    assert report.migration_leases_found >= 1
    assert report.objects_adopted >= 1
    env.run(system.migrate_to_tape())  # remigrate whatever recovery left
    for path, inode in system.archive_fs.walk("/"):
        if inode.is_file and path.startswith("/arch/"):
            assert inode.tsm_object_id is not None, path
    assert orphan_oids(system) == []
    assert system.journal.dangling_leases() == []


# ----------------------------------------------------------------------
# chaos harness smoke
# ----------------------------------------------------------------------

def test_chaos_harness_smoke():
    results = run_chaos(seed=0, crashes=2, quiet=True)
    assert [r.ok for r in results] == [True, True], [
        f for r in results for f in r.failures
    ]
