"""A5 — tape-ordered recall vs unordered recall (§4.1.2 item 2, §4.2.5).

Paper: "we try to arrange tape files based on their tape sequential
numbers and unique Tape-IDs... so we can drastically reduce tape drive
thrashing overhead and enforce sequential tape read when we are
restoring many midsize files."  PFTool gets (volume, seq) from the
MySQL-exported index and sorts each TapeCQ ascending.

Bench: restore 160 mid-size files spread over multiple volumes through
PFTool with tape_ordering on vs off; measure restore makespan and drive
seek time.
"""

from repro.archive import ArchiveParams, ParallelArchiveSystem
from repro.metrics import comparison_table
from repro.pftool import PftoolConfig
from repro.sim import Environment, RandomStreams
from repro.workloads import small_file_flood

from _common import GB, MB, small_tape_spec, write_report

N_FILES = 160
SIZE = 30 * MB


def _run_one(ordered):
    env = Environment()
    system = ParallelArchiveSystem(
        env,
        ArchiveParams(
            n_fta=4, n_disk_servers=2, n_tape_drives=2, n_scratch_tapes=8,
            tape_spec=small_tape_spec(), recall_routing="sticky",
        ),
    )
    paths = small_file_flood(system.archive_fs, "/cold", N_FILES, SIZE)
    # migrate in a shuffled order so tape layout != namespace order —
    # an unordered (stat-order) recall then seeks all over the tape
    rng = RandomStreams(7).stream("a5")
    shuffled = [paths[i] for i in rng.permutation(N_FILES)]
    half = len(shuffled) // 2
    env.run(system.hsm.migrate("fta0", shuffled[:half],
                               collocation_group="g1"))
    env.run(system.hsm.migrate("fta1", shuffled[half:],
                               collocation_group="g2"))
    env.run(system.exporter.run_once())

    cfg = PftoolConfig(
        num_workers=4, num_readdir=1, num_tapeprocs=2,
        stat_batch=N_FILES,  # one TapeCQ arrangement, as the paper's
        copy_batch=8, tape_ordering=ordered,
    )
    t0 = env.now
    seek0 = system.library.total_seek_seconds
    job = system.retrieve("/cold", "/back", cfg)
    stats = env.run(job.done)
    assert stats.tape_files_restored == N_FILES
    return env.now - t0, system.library.total_seek_seconds - seek0


def _run():
    return _run_one(True), _run_one(False)


def test_a5_tape_ordered_recall():
    (t_ord, seek_ord), (t_rand, seek_rand) = _run()

    rows = [
        ("ordered restore s", 0.0, t_ord),
        ("unordered restore s", 0.0, t_rand),
        ("unordered/ordered", 2.0, t_rand / t_ord),
        ("ordered seek s", 0.0, seek_ord),
        ("unordered seek s", 0.0, seek_rand),
    ]
    table = comparison_table(rows)
    report = (
        f"A5  tape-ordered recall ({N_FILES} x {SIZE/MB:.0f} MB files, "
        f"2 volumes)\n"
        f"  tape order: {t_ord:7.1f}s (seek {seek_ord:6.1f}s)\n"
        f"  unordered:  {t_rand:7.1f}s (seek {seek_rand:6.1f}s)\n\n{table}"
    )
    print("\n" + report)
    write_report("A5", report)

    # sequential front-to-back read beats seek-everywhere drastically
    assert seek_ord < seek_rand / 5
    assert t_ord < t_rand / 1.5
