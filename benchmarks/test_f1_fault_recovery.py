"""F1 — fault recovery overhead (retry/backoff, §4.1.1 operability).

The paper's operational claim is that multi-hour archive jobs survive
component trouble instead of wedging: the WatchDog kills truly stalled
jobs, and failed work is retried.  This bench quantifies the cost of
surviving: a tape restore is run clean, then again under a fault plan
(two drive outages with repair plus a burst of transient TSM retrieve
errors).  Measured: job slowdown and per-class retry counts.  The
faulted run must complete every file — recovery, not abandonment.
"""

from repro.archive import ArchiveParams, ParallelArchiveSystem
from repro.faults import FaultPlan
from repro.metrics import comparison_table
from repro.pftool import PftoolConfig
from repro.sim import Environment
from repro.workloads import small_file_flood

from _common import MB, small_tape_spec, write_report

N_FILES = 48
FILE_SIZE = 40 * MB


def _build():
    env = Environment()
    system = ParallelArchiveSystem(
        env,
        ArchiveParams(n_fta=6, n_disk_servers=3, n_tape_drives=2,
                      n_scratch_tapes=8, tape_spec=small_tape_spec(),
                      tsm_txn_time=0.5),
    )
    paths = small_file_flood(system.archive_fs, "/cold", N_FILES, FILE_SIZE)
    env.run(system.hsm.migrate("fta0", paths))
    env.run(system.exporter.run_once())
    return env, system


def _cfg():
    return PftoolConfig(
        num_workers=8, num_readdir=1, num_tapeprocs=2,
        retry_limit=4, retry_backoff=0.5, stall_timeout=1200.0,
    )


def _restore(plan):
    env, system = _build()
    if plan is not None:
        system.inject_faults(plan)
    job = system.retrieve("/cold", "/back", _cfg())
    stats = env.run(job.done)
    assert not stats.aborted
    return stats


def _run():
    clean = _restore(None)
    faulted = _restore(
        FaultPlan(seed=7)
        .drive_failure(at=8.0, drive="drv00", repair_after=40.0)
        .drive_failure(at=25.0, drive="drv01", repair_after=40.0)
        .tsm_retrieve_errors(rate=0.2, max_failures=6)
    )
    return clean, faulted


def test_f1_fault_recovery_overhead():
    clean, faulted = _run()

    slowdown = faulted.duration / clean.duration
    rows = [
        ("files restored (faulted)", N_FILES, faulted.tape_files_restored),
        ("permanent failures", 0.0, faulted.files_failed),
        ("slowdown vs clean run", 1.5, slowdown),
    ]
    table = comparison_table(rows)
    by_class = " ".join(
        f"{k}={v}" for k, v in sorted(faulted.retries_by_class.items())
    ) or "none"
    report = (
        f"F1  fault recovery ({N_FILES} x {FILE_SIZE/MB:.0f} MB restore, "
        f"2 drive outages + transient TSM errors)\n"
        f"  clean:   {clean.duration:7.1f}s\n"
        f"  faulted: {faulted.duration:7.1f}s  (x{slowdown:.2f}, "
        f"retries: {by_class})\n\n{table}"
    )
    print("\n" + report)
    write_report("F1", report)

    # recovery, not abandonment: everything restored, nothing wedged
    assert faulted.tape_files_restored == N_FILES
    assert faulted.files_copied == N_FILES
    assert faulted.files_failed == 0
    assert faulted.total_retries >= 1
    # bounded overhead: backoff + drive repair, not a stall-abort restart
    assert slowdown < 5.0
