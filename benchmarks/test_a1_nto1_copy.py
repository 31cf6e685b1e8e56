"""A1 — single-large-file N-to-1 parallel copy (§4.1.2 item 3).

Paper: files of 10-100 GB are divided into N equal sub-chunks assigned
to available Workers, "utiliz[ing] concurrent read/write capabilities of
the parallel file system [to] speedup data movement".

Bench: copy one 24 GB file scratch->archive with 1, 2, 4, 8, 16 workers
and report the speedup curve.  Speedup saturates at the shared-file
(N-to-1) write ceiling — the very limit that motivates A2's FUSE mode.
"""

from repro.archive import ArchiveParams, ParallelArchiveSystem
from repro.metrics import comparison_table
from repro.pftool import PftoolConfig
from repro.sim import Environment
from repro.workloads import huge_file_campaign

from _common import GB, small_tape_spec, write_report

FILE_SIZE = 24 * GB
WORKER_COUNTS = (1, 2, 4, 8, 16)


def _copy_duration(workers):
    env = Environment()
    system = ParallelArchiveSystem(
        env,
        ArchiveParams(n_fta=10, n_disk_servers=5, n_tape_drives=1,
                      n_scratch_tapes=4, tape_spec=small_tape_spec()),
    )
    huge_file_campaign(system.scratch_fs, "/big", 1, FILE_SIZE)
    cfg = PftoolConfig(
        num_workers=workers, num_readdir=1, num_tapeprocs=0,
        chunk_threshold=2 * GB, copy_chunk_size=1 * GB,
        fuse_threshold=10**15,
    )
    stats = env.run(system.archive("/big", "/a", cfg).done)
    assert stats.files_copied == 1
    return stats.duration


def _run():
    return {w: _copy_duration(w) for w in WORKER_COUNTS}


def test_a1_single_file_parallel_copy():
    durations = _run()
    base = durations[1]
    speedups = {w: base / durations[w] for w in WORKER_COUNTS}

    rows = [
        (f"speedup @{w} workers", float(min(w, 4)), speedups[w])
        for w in WORKER_COUNTS
    ]
    table = comparison_table(rows)
    lines = "\n".join(
        f"  {w:>2} workers: {durations[w]:8.1f}s  speedup {speedups[w]:.2f}x"
        for w in WORKER_COUNTS
    )
    report = f"A1  N-to-1 single large file copy (24 GB)\n{lines}\n\n{table}"
    print("\n" + report)
    write_report("A1", report)

    # monotone improvement, substantial parallel win, eventual saturation
    assert durations[2] < durations[1]
    assert durations[8] < durations[2]
    assert speedups[8] > 2.5
    # shared-file ceiling: 16 workers gain little over 8
    assert speedups[16] < speedups[8] * 1.5
