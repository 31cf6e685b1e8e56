"""FIG1 — the parallel-file-system vs archive scaling gap (paper Figure 1).

Figure 1 is the DOE ASC Kiviat diagram: "parallel file systems scaling
performance at an order of magnitude faster than parallel archives" —
the motivating observation.  Quantified here: aggregate disk-to-disk
parallel file system bandwidth vs end-to-end tape-archive bandwidth as
the mover count scales 1..8, on the same site.

The PFS curve scales with the fabric; the classic archive curve (one
LAN-attached mover through the TSM server, the pre-COTS deployment)
stays flat — an order-of-magnitude gap at scale, which is exactly the
gap the paper's LAN-free parallel archive closes.
"""

from repro.archive import ArchiveParams, ParallelArchiveSystem
from repro.baselines import SerialArchiver
from repro.metrics import comparison_table
from repro.pftool import PftoolConfig
from repro.sim import Environment
from repro.workloads import huge_file_campaign

from _common import GB, MB, small_tape_spec, write_report

SCALES = (1, 2, 4, 8)
PER_MOVER_FILES = 4
FILE_SIZE = 4 * GB


def _pfs_bandwidth(n_movers):
    """Disk-to-disk parallel copy bandwidth with n movers."""
    env = Environment()
    system = ParallelArchiveSystem(
        env,
        ArchiveParams(n_fta=8, n_disk_servers=5, n_tape_drives=1,
                      n_scratch_tapes=4, tape_spec=small_tape_spec()),
    )
    huge_file_campaign(
        system.scratch_fs, "/d", n_movers * PER_MOVER_FILES, FILE_SIZE
    )
    cfg = PftoolConfig(num_workers=n_movers, num_readdir=1, num_tapeprocs=0,
                       chunk_threshold=10**18, copy_batch=1)
    stats = env.run(system.archive("/d", "/a", cfg).done)
    return stats.data_rate


def _archive_bandwidth_classic(n_movers):
    """The classic (non-parallel) archive path: every stream relays
    through the single TSM server over the LAN, then to tape."""
    env = Environment()
    system = ParallelArchiveSystem(
        env,
        ArchiveParams(n_fta=8, n_disk_servers=5, n_tape_drives=8,
                      n_scratch_tapes=16, tape_spec=small_tape_spec()),
    )
    # the pre-COTS archive server generation had GigE-class connectivity;
    # every stream relays through this one NIC
    fab = system.topology.fabric
    fab.set_link_capacity("nic-tsm", 125 * MB)
    fab.set_link_capacity("nic-tsm:rev", 125 * MB)
    paths = huge_file_campaign(
        system.archive_fs, "/d", n_movers * 2, FILE_SIZE
    )
    sessions = [
        system.tsm.open_session(f"fta{i}", lan_free=False)
        for i in range(n_movers)
    ]
    t0 = env.now
    evs = []
    for i, sess in enumerate(sessions):
        batch = [(p, FILE_SIZE) for p in paths[i * 2 : i * 2 + 2]]
        evs.append(sess.store_many("archive", batch, collocation_group=f"g{i}"))

    def waiter():
        for ev in evs:
            yield ev

    env.run(env.process(waiter()))
    total = n_movers * 2 * FILE_SIZE
    return total / (env.now - t0)


def _run():
    pfs = {n: _pfs_bandwidth(n) for n in SCALES}
    arc = {n: _archive_bandwidth_classic(n) for n in SCALES}
    return pfs, arc


def test_fig1_scaling_gap():
    pfs, arc = _run()
    pfs_scaling = pfs[8] / pfs[1]
    arc_scaling = arc[8] / arc[1]
    gap_at_8 = pfs[8] / arc[8]

    lines = "\n".join(
        f"  {n} movers: PFS {pfs[n]/MB:7.0f} MB/s   classic archive "
        f"{arc[n]/MB:6.0f} MB/s" for n in SCALES
    )
    rows = [
        ("PFS scaling 1->8", 6.0, pfs_scaling),
        ("classic archive scaling 1->8", 1.2, arc_scaling),
        ("PFS/archive gap @8", 10.0, gap_at_8),
    ]
    table = comparison_table(rows)
    report = f"FIG1  PFS vs classic-archive bandwidth scaling\n{lines}\n\n{table}"
    print("\n" + report)
    write_report("FIG1", report)

    # the Kiviat's qualitative claim: PFS scales ~an order of magnitude
    # faster than the (server-bottlenecked) archive
    assert pfs_scaling > 3.0
    assert arc_scaling < 2.0
    assert gap_at_8 > 5.0
