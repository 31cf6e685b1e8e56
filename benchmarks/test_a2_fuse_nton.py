"""A2 — ArchiveFUSE: converting N-to-1 into N-to-N (§4.1.2 item 4).

Paper: for very large (>100 GB) files, parallel writes into ONE file hit
"N-to-1 parallel I/O overhead [23]" (the PLFS problem: shared-file block
allocation/lock traffic serialises writers); ArchiveFUSE splits the file
into N chunk files so N workers write N files — "successfully converted
an N-to-1 parallel I/O operation into an N-to-N parallel I/O operation".

Bench: copy one 120 GB file with 10 workers, with the FUSE layer off
(N-to-1) and on (N-to-N).  The shared-write ceiling binds the first and
not the second.
"""

from repro.archive import ArchiveParams, ParallelArchiveSystem
from repro.metrics import comparison_table
from repro.pftool import PftoolConfig
from repro.sim import Environment
from repro.workloads import huge_file_campaign

from _common import GB, small_tape_spec, write_report

FILE_SIZE = 120 * GB
WORKERS = 10


def _copy(fuse_on):
    env = Environment()
    system = ParallelArchiveSystem(
        env,
        ArchiveParams(n_fta=10, n_disk_servers=5, n_tape_drives=1,
                      n_scratch_tapes=4, tape_spec=small_tape_spec()),
    )
    system.fuse.chunk_size = 12 * GB
    huge_file_campaign(system.scratch_fs, "/vast", 1, FILE_SIZE)
    cfg = PftoolConfig(
        num_workers=WORKERS, num_readdir=1, num_tapeprocs=0,
        chunk_threshold=4 * GB, copy_chunk_size=12 * GB,
        fuse_threshold=(100 * GB if fuse_on else 10**18),
    )
    stats = env.run(system.archive("/vast", "/a", cfg).done)
    assert stats.files_copied == 1
    if fuse_on:
        assert stats.fuse_files == 1
        assert system.fuse.is_complete("/a/huge000.h5")
    return stats.duration


def _run():
    return _copy(False), _copy(True)


def test_a2_fuse_nton_vs_nto1():
    t_nto1, t_nton = _run()
    rate1 = FILE_SIZE / t_nto1 / 1e6
    rateN = FILE_SIZE / t_nton / 1e6

    rows = [
        ("N-to-1 rate MB/s", 1500.0, rate1),
        ("FUSE N-to-N rate MB/s", 2400.0, rateN),
        ("N-to-N / N-to-1", 1.5, rateN / rate1),
    ]
    table = comparison_table(rows)
    report = (
        f"A2  very large file ({FILE_SIZE/GB:.0f} GB), {WORKERS} workers\n"
        f"  N-to-1 (single shared file): {t_nto1:7.1f}s ({rate1:6.0f} MB/s)\n"
        f"  N-to-N (ArchiveFUSE chunks): {t_nton:7.1f}s ({rateN:6.0f} MB/s)\n\n"
        f"{table}"
    )
    print("\n" + report)
    write_report("A2", report)

    # the conversion wins, bounded by hardware not the shared-file lock
    assert t_nton < t_nto1
    assert rateN / rate1 > 1.2
    assert rate1 <= 1600.0  # shared-write ceiling binds (1.5 GB/s model)
    assert rateN > 1600.0  # N-to-N clears it
