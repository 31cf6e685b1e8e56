"""F2 — crash-restart overhead: journal resume vs restart from scratch.

A multi-hour archive job that dies mid-flight must not start over
(§4.1.1 restartability).  Three runs of the same archive workload:

* **clean** — uncrashed baseline;
* **journal resume** — the Manager is killed halfway, then the job is
  resumed from its :class:`~repro.recovery.journal.JobJournal`: whole
  files and chunk ranges recorded complete are never re-copied, so the
  only duplicated work is chunks in flight at the kill;
* **scratch restart** — same crash, but the operator simply runs the
  job again from the beginning (no restart logic, no journal): every
  byte is copied twice.

Measured: wall-clock of each recovery path and the bytes it copied.
The journal path must never redo journalled work — its re-copy stays
within the un-journalled remainder plus one in-flight chunk per worker
— while the scratch path pays the full workload again.
"""


from repro.faults import CrashFault, classify_failure
from repro.metrics import comparison_table
from repro.recovery import JobJournal
from repro.sim import Environment

from _common import MB, paper_site, pftool_cfg, seed_scratch_tree, write_report

N_SMALL = 16
SMALL_SIZE = 40 * MB
N_LARGE = 6
LARGE_SIZE = 400 * MB
CHUNK = 16 * MB
TOTAL = N_SMALL * SMALL_SIZE + N_LARGE * LARGE_SIZE


def _layout():
    files = {f"/data/small/f{i:02d}": SMALL_SIZE for i in range(N_SMALL)}
    files.update({f"/data/large/g{i}": LARGE_SIZE for i in range(N_LARGE)})
    return files


def _build():
    env = Environment()
    system = paper_site(env, n_fta=6, n_disk_servers=3, n_tape_drives=2,
                        n_scratch_tapes=8)
    seed_scratch_tree(env, system, _layout())
    return env, system


def _cfg():
    return pftool_cfg(
        num_workers=8, num_tapeprocs=2,
        chunk_threshold=4 * CHUNK, copy_chunk_size=CHUNK,
        watchdog_interval=30.0, stall_timeout=240.0,
    )


def _crashed_run(crash_at, journalled):
    """Archive, kill the Manager at *crash_at*, recover one of two ways.

    Returns (recovery wall-clock, crashed-run stats, recovery stats).
    """
    env, system = _build()
    journal = JobJournal(env)
    job = system.archive("/data", "/arch", _cfg(), journal=journal)
    env.call_later(crash_at, job.crash)
    try:
        env.run(job.done)
    except CrashFault as exc:
        assert classify_failure(exc) == "crash"
    env.run()  # drain torn I/O
    t_crash = env.now

    if journalled:
        rjob = system.resume_job(journal, _cfg())
    else:
        rjob = system.archive("/data", "/arch", _cfg())
    stats2 = env.run(rjob.done)
    assert not stats2.aborted
    return env.now - t_crash, job.stats, stats2


def _run():
    env, system = _build()
    clean = env.run(system.archive("/data", "/arch", _cfg()).done)
    crash_at = 0.5 * clean.duration
    resume = _crashed_run(crash_at, True)
    scratch = _crashed_run(crash_at, False)
    return clean, crash_at, resume, scratch


def test_f2_crash_restart_overhead():
    clean, crash_at, resume, scratch = _run()
    resume_wall, crashed_stats, resume_stats = resume
    scratch_wall, _, scratch_stats = scratch

    cfg = _cfg()
    remaining = TOTAL - crashed_stats.bytes_copied
    rows = [
        ("recovery copied MB (journal)", remaining / MB,
         resume_stats.bytes_copied / MB),
        ("recovery copied MB (scratch rerun)", TOTAL / MB,
         scratch_stats.bytes_copied / MB),
        ("recovery wall-clock ratio", 0.5, resume_wall / scratch_wall),
    ]
    table = comparison_table(rows)
    report = (
        f"F2  crash restart ({N_SMALL} x {SMALL_SIZE/MB:.0f} MB + "
        f"{N_LARGE} x {LARGE_SIZE/MB:.0f} MB archive, Manager killed at "
        f"t={crash_at:.1f}s of {clean.duration:.1f}s, "
        f"{crashed_stats.bytes_copied / MB:.0f} MB journalled before the "
        f"crash)\n"
        f"  journal resume:  {resume_wall:7.1f}s  "
        f"copied {resume_stats.bytes_copied / MB:7.1f} MB  "
        f"(journal skipped {resume_stats.journal_chunks_skipped} chunks / "
        f"{resume_stats.journal_bytes_skipped / MB:.0f} MB, "
        f"{resume_stats.files_skipped} files)\n"
        f"  scratch rerun:   {scratch_wall:7.1f}s  "
        f"copied {scratch_stats.bytes_copied / MB:7.1f} MB\n\n{table}"
    )
    print("\n" + report)
    write_report("F2", report)

    # the journal frontier is honoured: the resume never redoes
    # journalled work — at most the un-journalled remainder plus one
    # in-flight chunk per worker — while the rerun pays everything again
    assert resume_stats.bytes_copied <= remaining + cfg.num_workers * CHUNK
    assert resume_stats.journal_chunks_skipped > 0
    assert resume_stats.bytes_copied < scratch_stats.bytes_copied
    assert scratch_stats.bytes_copied == TOTAL
    assert resume_wall < scratch_wall
