"""E3 — synchronous delete vs reconcile tree-walk (§4.2.6, §6.3).

Paper: reconciliation "does a directory tree-walk and compares each file
one by one rather than take advantage of the GPFS metadata system.  For
an archive with tens to hundreds of millions of files, the overhead is
unacceptable."  The trashcan + synchronous deleter remove orphans with
cost proportional to the *deletions*, not the namespace.

Bench: a 20,000-file archive namespace with 1% of files deleted.
Measured: simulated time of (a) trashcan sweep with synchronous delete,
(b) a full reconcile pass finding the same orphans.  The paper's claim
is the scaling shape: reconcile ~ O(namespace), sync-delete ~ O(deletes).
"""

from repro.archive import ArchiveParams, ParallelArchiveSystem
from repro.hsm import ReconcileAgent
from repro.metrics import comparison_table
from repro.sim import Environment
from repro.workloads import small_file_flood

from _common import MB, small_tape_spec, write_report

N_FILES = 20_000
DELETE_FRACTION = 0.01


def _build():
    env = Environment()
    system = ParallelArchiveSystem(
        env,
        ArchiveParams(
            n_fta=4, n_disk_servers=2, n_tape_drives=4, n_scratch_tapes=64,
            tape_spec=small_tape_spec(),
        ),
    )
    paths = small_file_flood(system.archive_fs, "/data", N_FILES, 2 * MB)
    # give every file a tape copy cheaply: register objects directly
    # (migrating 20k files through the drives is not what E3 measures)
    session = system.tsm.open_session("fta0")
    for i in range(0, N_FILES, 2000):
        batch = [(p, 2 * MB) for p in paths[i : i + 2000]]
        receipts = None

        def _store(b=batch):
            return system.tsm.store_objects(session, "archive", b)

        receipts = env.run(_store())
        for r in receipts:
            system.archive_fs.mark_premigrated(r.path, r.object_id)
    env.run(system.exporter.run_once())
    return env, system, paths


def _run():
    # --- synchronous delete path -----------------------------------------
    env, system, paths = _build()
    victims = paths[:: int(1 / DELETE_FRACTION)][: int(N_FILES * DELETE_FRACTION)]
    for p in victims:
        system.user_delete(p)
    t0 = env.now
    n = env.run(system.sweep_trash())
    sync_time = env.now - t0
    assert n == len(victims)

    # --- reconcile path ----------------------------------------------------
    env2, system2, paths2 = _build()
    victims2 = paths2[:: int(1 / DELETE_FRACTION)][: int(N_FILES * DELETE_FRACTION)]
    for p in victims2:
        # plain unlink: leaves tape orphans, forcing reconciliation
        env2.run(system2.archive_fs.unlink_op(p))
    agent = ReconcileAgent(env2, system2.archive_fs, system2.tsm)
    t0 = env2.now
    report = env2.run(agent.run())
    reconcile_time = env2.now - t0
    assert report.orphans_deleted == len(victims2)
    return sync_time, reconcile_time, len(victims), report


def test_e3_sync_delete_vs_reconcile():
    sync_time, reconcile_time, n_deleted, report = _run()

    rows = [
        ("sync-delete seconds", float(n_deleted) * 0.05, sync_time),
        ("reconcile seconds", N_FILES * 0.006, reconcile_time),
        ("reconcile/sync ratio", 25.0, reconcile_time / sync_time),
    ]
    table = comparison_table(rows)
    report_text = (
        "E3  synchronous delete vs reconciliation (§4.2.6)\n"
        f"  namespace={N_FILES} files, deleted={n_deleted}\n"
        f"  sync-delete sweep: {sync_time:.1f}s "
        f"(O(deletes))\n"
        f"  reconcile: {reconcile_time:.1f}s walking "
        f"{report.files_walked} fs entries + {report.tsm_objects_checked} "
        f"TSM objects (O(namespace))\n\n{table}"
    )
    print("\n" + report_text)
    write_report("E3", report_text)

    assert reconcile_time > 10 * sync_time  # the 'unacceptable' gap
    assert report.files_walked >= N_FILES - n_deleted
