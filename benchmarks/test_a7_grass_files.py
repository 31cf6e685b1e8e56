"""A7 — the grass-files problem (§7 future work), solved and measured.

Paper: "We plan to ... provide an efficient solution for archiving very
large number of small files in parallel (i.e. very large number grass
files parallel copy problem)."

Bench: archive 600 x 64 KB files (a) file-by-file, (b) with PFTool's
tar-pipe packing (one container object per batch), then migrate both
trees to tape on one drive.  Packing wins twice: fewer metadata ops and
data streams on the disk copy, and one tape transaction per container
instead of one per file.
"""

from repro.archive import ArchiveParams, ParallelArchiveSystem
from repro.metrics import comparison_table
from repro.pftool import PftoolConfig
from repro.sim import Environment
from repro.workloads import small_file_flood

from _common import MB, small_tape_spec, write_report

N_FILES = 600
SIZE = 64_000  # 64 KB grass files


def _run_mode(pack):
    env = Environment()
    system = ParallelArchiveSystem(
        env,
        ArchiveParams(n_fta=4, n_disk_servers=2, n_tape_drives=1,
                      n_scratch_tapes=8, tape_spec=small_tape_spec()),
    )

    def seed():
        system.scratch_fs.mkdir("/grass", parents=True)
        for i in range(N_FILES):
            yield system.scratch_fs.write_file(
                "scratch", f"/grass/g{i:05d}", SIZE
            )

    env.run(env.process(seed()))
    cfg = PftoolConfig(num_workers=8, num_readdir=1, num_tapeprocs=0,
                       copy_batch=32, tar_pipe=pack)
    stats = env.run(system.archive("/grass", "/a", cfg).done)
    assert stats.files_copied == N_FILES
    copy_s = stats.duration

    bh0 = system.library.total_backhitches
    t0 = env.now
    report = env.run(system.migrate_to_tape())
    migrate_s = env.now - t0
    transactions = system.library.total_backhitches - bh0
    return copy_s, migrate_s, transactions


def _run():
    return _run_mode(False), _run_mode(True)


def test_a7_grass_files_packing():
    (copy_plain, mig_plain, tx_plain), (copy_pack, mig_pack, tx_pack) = (
        _run()
    )

    rows = [
        ("copy speedup (packed)", 2.0, copy_plain / copy_pack),
        ("migrate speedup (packed)", 10.0, mig_plain / mig_pack),
        ("tape transactions plain", float(N_FILES), float(tx_plain)),
        ("tape transactions packed", float(N_FILES // 32 + 1), float(tx_pack)),
    ]
    table = comparison_table(rows)
    report = (
        f"A7  grass files ({N_FILES} x {SIZE/1000:.0f} KB)\n"
        f"  plain:  copy {copy_plain:6.1f}s  migrate {mig_plain:7.1f}s "
        f"({tx_plain} tape transactions)\n"
        f"  packed: copy {copy_pack:6.1f}s  migrate {mig_pack:7.1f}s "
        f"({tx_pack} tape transactions)\n\n{table}"
    )
    print("\n" + report)
    write_report("A7", report)

    assert copy_pack < copy_plain
    assert tx_pack <= N_FILES // 32 + 2
    assert tx_plain >= N_FILES * 0.9
    assert mig_pack < mig_plain / 5  # the §6.1 collapse, avoided end-to-end
