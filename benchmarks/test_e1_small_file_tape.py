"""E1 — small-file tape performance collapse and the aggregation fix (§6.1).

Paper: migrating millions of 8 MB files ran at ~4 MB/s per drive instead
of the ~100 MB/s achieved with large files on LTO-4 — one HSM
transaction per file stops the drive after every file.  TSM's backup
client aggregates small files into larger objects; migration lacked it.

Bench: migrate (a) 8 MB files one-transaction-per-file, (b) the same
files with aggregation, (c) 1 GB files — measuring per-drive streaming
rate on one drive, as the paper's observation is per-drive.
"""

from repro.archive import ArchiveParams, ParallelArchiveSystem
from repro.metrics import comparison_table
from repro.sim import Environment
from repro.workloads import small_file_flood, huge_file_campaign

from _common import GB, MB, small_tape_spec, write_report

N_SMALL = 120
SMALL = 8 * MB
N_LARGE = 6
LARGE = 2 * GB


def _one_drive_site():
    env = Environment()
    system = ParallelArchiveSystem(
        env,
        ArchiveParams(
            n_fta=2, n_disk_servers=2, n_tape_drives=1, n_scratch_tapes=8,
            tape_spec=small_tape_spec(),
        ),
    )
    return env, system


def _migrate_rate(paths_factory, aggregate, warmup=2):
    """Steady-state per-drive migration rate.

    A warmup batch mounts the output volume first (lazy dismount keeps it
    on the drive), so the measured window is pure streaming — matching
    the paper's per-drive rate observations.
    """
    env, system = _one_drive_site()
    paths = paths_factory(system)
    drive = system.library.drives[0]
    env.run(system.hsm.migrate("fta0", paths[:warmup], aggregate=aggregate))
    t0 = env.now
    bytes0 = drive.bytes_written
    bh0 = drive.backhitches
    env.run(system.hsm.migrate("fta0", paths[warmup:], aggregate=aggregate))
    duration = env.now - t0
    return (drive.bytes_written - bytes0) / duration, drive.backhitches - bh0


def _run():
    per_file_rate, bh_per_file = _migrate_rate(
        lambda s: small_file_flood(s.archive_fs, "/flood", N_SMALL, SMALL),
        aggregate=False,
        warmup=4,
    )
    agg_rate, bh_agg = _migrate_rate(
        lambda s: small_file_flood(s.archive_fs, "/flood", N_SMALL, SMALL),
        aggregate=True,
        warmup=4,
    )
    large_rate, _ = _migrate_rate(
        lambda s: huge_file_campaign(s.archive_fs, "/big", N_LARGE, LARGE),
        aggregate=False,
        warmup=2,
    )
    return per_file_rate, agg_rate, large_rate, bh_per_file, bh_agg


def test_e1_small_file_tape_collapse():
    per_file, agg, large, bh_pf, bh_agg = _run()

    rows = [
        ("8MB files, per-file MB/s", 4.0, per_file / MB),
        ("large files MB/s", 100.0, large / MB),
        ("collapse factor", 100.0 / 4.0, large / per_file),
        ("8MB files, aggregated MB/s", 100.0, agg / MB),
    ]
    table = comparison_table(rows)
    report = (
        f"E1  small-file tape performance (§6.1)\n"
        f"  backhitches: per-file={bh_pf}  aggregated={bh_agg}\n\n{table}"
    )
    print("\n" + report)
    write_report("E1", report)

    # paper's shape: ~25x collapse, aggregation restores streaming speed
    assert per_file / MB < 8.0  # collapsed (paper: 4 MB/s)
    assert large / MB > 60.0  # healthy streaming (paper: ~100 MB/s)
    assert large / per_file > 10.0  # order-of-magnitude gap
    assert agg / per_file > 5.0  # aggregation recovers most of it
    assert bh_agg < bh_pf / 10
