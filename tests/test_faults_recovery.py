"""Fault injection + PFTool retry/backoff recovery (the worker-crash
job-wedge family).

The scenarios here drive a full site through injected tape-drive
failures, transient TSM retrieve errors, filesystem error bursts and
FTA-node outages, and assert that PFTool jobs complete (no watchdog
abort, no wedged queue entries) with the recovery accounted in
``JobStats.retries_by_class`` / ``failures_by_class``.
"""

import os

import pytest

from repro.archive import ArchiveParams, ParallelArchiveSystem
from repro.faults import (
    DriveFault,
    FaultPlan,
    NodeOutageFault,
    TransientIOFault,
    TsmFault,
    classify_failure,
)
from repro.pfs import PathError
from repro.pftool import PftoolConfig
from repro.pftool.messages import CopyResult
from repro.sim import Environment, FilterStore, SimulationError
from repro.tapesim import TapeSpec
from repro.workloads import small_file_flood
from repro.workloads.generators import _instant_create

GB = 1_000_000_000
MB = 1_000_000

# The nightly seed-sweep CI job sets REPRO_SEED_SWEEP=0..9 to re-run
# these scenarios with shifted fault-plan seeds: the *recovery*
# assertions (no abort, no wedge, correct file contents) must hold for
# any seed, so a sweep surfaces flaky nondeterminism before users do.
SEED_SWEEP = int(os.environ.get("REPRO_SEED_SWEEP", "0"))


def sweep(seed):
    """Offset a FaultPlan seed under the CI seed-sweep matrix."""
    return seed + 1000 * SEED_SWEEP

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
        for path, size in layout.items():
            parent = path.rsplit("/", 1)[0] or "/"
            system.scratch_fs.mkdir(parent, parents=True)
            yield system.scratch_fs.write_file("scratch", path, size)

    env.run(env.process(go()))


def cfg_small(**over):
    kw = dict(num_workers=4, num_readdir=1, num_tapeprocs=2, stat_batch=8,
              copy_batch=4, watchdog_interval=30.0)
    kw.update(over)
    return PftoolConfig(**kw)


def migrate_tree(env, system, root, n, size):
    """Archive-side files under *root* pushed out to tape and indexed."""
    paths = small_file_flood(system.archive_fs, root, n, size)
    env.run(system.hsm.migrate("fta0", paths))
    env.run(system.exporter.run_once())
    return paths


def assert_no_wedge(m):
    """No leaked queue state once the Manager declared completion.

    Takes the Manager captured before the run: a finished job releases it.
    """
    assert m.waiting_chunks == {}
    assert m.parked_container_jobs == {}
    assert m.pending_retries == 0
    assert not m.copy_q
    assert not m.tape_q
    assert m.out_copy == 0
    assert m.out_tape == 0


# ----------------------------------------------------------------------
# taxonomy / plumbing units
# ----------------------------------------------------------------------
def test_classify_failure_taxonomy():
    assert classify_failure(DriveFault("x")) == "drive"
    assert classify_failure(TsmFault("x")) == "tsm"
    assert classify_failure(TransientIOFault("x")) == "fs"
    assert classify_failure(NodeOutageFault("x")) == "node"
    assert classify_failure(PathError("x")) == "path"
    assert classify_failure(SimulationError("x")) == "io"
    assert classify_failure(ValueError("x")) == "error"


def test_fault_plan_is_deterministic():
    def run(seed):
        env = Environment()
        system = small_site(env)
        migrate_tree(env, system, "/cold", 8, 10 * MB)
        system.inject_faults(
            FaultPlan(seed=seed).tsm_retrieve_errors(rate=0.5, max_failures=3)
        )
        stats = env.run(system.retrieve("/cold", "/back", cfg_small()).done)
        return (stats.retries_by_class, stats.duration)

    assert run(sweep(11)) == run(sweep(11))


def test_cancelled_store_get_does_not_consume_items():
    """StoreGet.cancel() withdraws the get eagerly: a later put must go
    to the next real getter, not be swallowed by the abandoned one (the
    watchdog lost-Exit bug)."""
    env = Environment()
    store = FilterStore(env)
    abandoned = store.get()
    abandoned.cancel()
    live = store.get()
    store.put("msg")
    env.run()
    assert not abandoned.triggered
    assert live.triggered and live.value == "msg"


def _bare_manager(env):
    """A Manager wired to toy file systems (no job run needed)."""
    from repro.disksim import DiskArray
    from repro.mpisim import SimComm
    from repro.pfs import GpfsFileSystem, StoragePool
    from repro.pftool import RuntimeContext
    from repro.pftool.manager import Manager
    from repro.pftool.stats import JobStats

    def fs(name):
        f = GpfsFileSystem(env, name, metadata_op_time=0.0)
        arr = DiskArray(env, f"{name}-a", capacity_bytes=1e15, bandwidth=1e9,
                        seek_time=0.0)
        f.add_pool(StoragePool("p", [arr]), default=True)
        return f

    src, dst = fs("src"), fs("dst")
    src.mkdir("/src", parents=True)
    ctx = RuntimeContext(src_fs=src, dst_fs=dst, nodes=["n0", "n1"])
    cfg = PftoolConfig(num_workers=2, num_readdir=1, num_tapeprocs=0)
    comm = SimComm(env, cfg.total_ranks)
    return Manager(env, comm, cfg, ctx, "copy", "/src", "/dst", JobStats(),
                   env.event())


def test_duplicate_chunk_result_counts_file_once():
    """A re-delivered (retried) chunk range must not double-credit
    files_copied — the restart-range double-count bug."""
    env = Environment()
    m = _bare_manager(env)

    def go():
        m.ctx.dst_fs.mkdir("/dst", parents=True)
        yield m.ctx.dst_fs.write_file("n0", "/dst/big", 2 * MB)

    env.run(env.process(go()))
    m.out_copy = 4
    first = CopyResult(0, MB, chunk_of=("/src/big", "/dst/big", 2 * MB),
                       offset=0, length=MB)
    second = CopyResult(0, MB, chunk_of=("/src/big", "/dst/big", 2 * MB),
                        offset=MB, length=MB)
    m._on_copy_result(first)
    m._on_copy_result(first)  # duplicate delivery of the same range
    assert m.stats.files_copied == 0
    m._on_copy_result(second)
    assert m.stats.files_copied == 1
    m._on_copy_result(second)  # late duplicate after completion
    assert m.stats.files_copied == 1
    assert m.stats.chunks_copied == 4  # every delivery is still a chunk event


# ----------------------------------------------------------------------
# the acceptance scenario: drive failures + TSM errors mid-restore
# ----------------------------------------------------------------------
def test_restore_survives_drive_failures_and_tsm_errors():
    """Two drives die mid-job (one repaired later) while the TSM server
    throws transient retrieve errors; the restore completes without a
    watchdog abort and the stats carry per-class retry counts."""
    env = Environment()
    # Long TSM transactions widen the acquire->read window so the drive
    # outages land while a retrieve holds the drive (DriveFault path).
    system = small_site(env, n_tape_drives=2, tsm_txn_time=2.0)
    paths = migrate_tree(env, system, "/cold", 12, 40 * MB)
    injector = system.inject_faults(
        FaultPlan(seed=sweep(7))
        .drive_failure(at=10.0, drive="drv00", repair_after=30.0)
        .drive_failure(at=20.0, drive="drv01", repair_after=30.0)
        .tsm_retrieve_errors(rate=0.3, max_failures=4)
    )
    cfg = cfg_small(num_tapeprocs=2, retry_backoff=0.5, retry_limit=4,
                    stall_timeout=600.0)
    job = system.retrieve("/cold", "/back", cfg)
    manager = job._manager
    stats = env.run(job.done)

    assert not stats.aborted
    assert stats.files_failed == 0
    assert stats.tape_files_restored == 12
    assert stats.files_copied == 12
    for p in paths:
        name = p.rsplit("/", 1)[1]
        assert system.scratch_fs.lookup(f"/back/{name}").size == 40 * MB
    assert injector.injected.get("drive") == 2
    assert stats.failures_by_class == {}
    if SEED_SWEEP == 0:
        # Fault *accounting* is pinned to the baseline seed: whether a
        # drive outage catches a retrieve in flight (and so forces a
        # retry) depends on the fault plan's timing draw.  Under the
        # sweep only the recovery invariants above must hold.
        assert injector.injected.get("tsm", 0) >= 1
        assert stats.retries_by_class.get("drive", 0) >= 1
        assert stats.retries_by_class.get("tsm", 0) >= 1
    assert_no_wedge(manager)


def test_tape_retrieve_errors_exhaust_retries_without_wedging():
    """Persistent TSM errors against every retrieve: the job must still
    terminate (no wedge, no abort) with the losses accounted."""
    env = Environment()
    system = small_site(env)
    migrate_tree(env, system, "/cold", 4, 10 * MB)
    system.inject_faults(
        FaultPlan(seed=sweep(3)).tsm_retrieve_errors(rate=1.0, max_failures=1000)
    )
    cfg = cfg_small(retry_limit=1, retry_backoff=0.5, stall_timeout=600.0)
    job = system.retrieve("/cold", "/back", cfg)
    manager = job._manager
    stats = env.run(job.done)
    assert not stats.aborted
    assert stats.tape_files_restored == 0
    assert stats.files_failed == 4
    assert stats.failures_by_class.get("tsm") == 4
    assert stats.retries_by_class.get("tsm") == 4  # one retry each
    assert_no_wedge(manager)


# ----------------------------------------------------------------------
# filesystem faults on the copy path
# ----------------------------------------------------------------------
def test_transient_fs_errors_on_chunked_copy_retried():
    env = Environment()
    system = small_site(env)
    seed_scratch(env, system, {"/big/one.dat": 8 * GB})
    system.inject_faults(
        FaultPlan(seed=sweep(5)).fs_errors(
            rate=1.0, max_failures=2, op="write", path_contains="one.dat"
        )
    )
    cfg = cfg_small(chunk_threshold=2 * GB, copy_chunk_size=2 * GB,
                    retry_backoff=0.5)
    job = system.archive("/big", "/a", cfg)
    manager = job._manager
    stats = env.run(job.done)
    assert not stats.aborted
    assert stats.files_copied == 1
    assert stats.files_failed == 0
    assert stats.retries_by_class.get("fs") == 2
    assert system.archive_fs.lookup("/a/one.dat").size == 8 * GB
    assert_no_wedge(manager)


def test_permanent_create_failure_drains_waiting_chunks():
    """When the provisioning (create=True) chunk fails for good, the
    parked sibling chunks must be dropped so the job can finish."""
    env = Environment()
    system = small_site(env)
    seed_scratch(env, system, {"/big/doomed.dat": 8 * GB, "/big/ok.dat": 5 * MB})
    system.inject_faults(
        FaultPlan(seed=sweep(5)).fs_errors(
            rate=1.0, max_failures=50, op="create", path_contains="doomed"
        )
    )
    cfg = cfg_small(chunk_threshold=2 * GB, copy_chunk_size=2 * GB,
                    retry_limit=2, retry_backoff=0.5)
    job = system.archive("/big", "/a", cfg)
    manager = job._manager
    stats = env.run(job.done)
    assert not stats.aborted
    assert stats.files_copied == 1  # ok.dat
    assert stats.files_failed == 1  # doomed.dat, exactly once
    assert stats.retries_by_class.get("fs") == 2
    assert stats.failures_by_class.get("fs") == 1
    assert system.archive_fs.lookup("/a/ok.dat").size == 5 * MB
    assert_no_wedge(manager)


def test_node_outage_copies_retried_on_recovery():
    """An FTA node drops out while its workers hold copy batches; the
    failed batches are retried after the outage and the job completes.

    The outage starts mid-copy (not at arming): control messages sent
    into an outage window are now *delayed* past it rather than silently
    delivered, so a window covering dispatch would simply idle the node.
    Work already delivered still fails its data ops with the ``node``
    class, and at least one in-flight message rides the delay path.
    (start= is relative to arming, so 0.01 lands after the first batch
    dispatch but well inside the ~0.04 s copy phase.)
    """
    env = Environment()
    system = small_site(env)
    seed_scratch(env, system, {f"/d/f{i:02d}": 2 * MB for i in range(16)})
    injector = system.inject_faults(
        FaultPlan(seed=sweep(9)).node_outage(node="fta1", start=0.01,
                                             duration=2.5)
    )
    cfg = cfg_small(retry_backoff=1.0, retry_limit=4)
    job = system.archive("/d", "/a", cfg)
    manager = job._manager
    stats = env.run(job.done)
    assert not stats.aborted
    assert stats.files_copied == 16
    assert stats.files_failed == 0
    assert stats.retries_by_class.get("node", 0) >= 1
    assert injector.delayed_messages >= 1
    assert injector.injected.get("node", 0) >= 1
    for i in range(16):
        assert system.archive_fs.lookup(f"/a/f{i:02d}").size == 2 * MB
    assert_no_wedge(manager)


# ----------------------------------------------------------------------
# sentinel-free tape destinations
# ----------------------------------------------------------------------
def test_restore_paths_containing_sentinel_substrings():
    """Real paths containing '@@' or '##container##' are just paths: the
    structured TapeDst markers must not misroute them (the old string
    sentinels did)."""
    env = Environment()
    system = small_site(env)
    system.archive_fs.mkdir("/cold", parents=True)
    weird = ["/cold/run@@7@@fields@@v2.h5", "/cold/x##container##y.dat"]
    for p in weird:
        _instant_create(system.archive_fs, "setup", p, 10 * MB, 0xD0 << 20)
    env.run(system.hsm.migrate("fta0", weird))
    env.run(system.exporter.run_once())
    job = system.retrieve("/cold", "/back", cfg_small())
    manager = job._manager
    stats = env.run(job.done)
    assert not stats.aborted
    assert stats.files_copied == 2
    assert stats.files_failed == 0
    assert system.scratch_fs.lookup("/back/run@@7@@fields@@v2.h5").size == 10 * MB
    assert system.scratch_fs.lookup("/back/x##container##y.dat").size == 10 * MB
    assert_no_wedge(manager)


# ----------------------------------------------------------------------
# watchdog behaviour
# ----------------------------------------------------------------------
def test_watchdog_exits_with_the_job():
    """After Exit the watchdog must stop sampling: the lost-Exit bug left
    it running (its abandoned receive swallowed the Exit message)."""
    env = Environment()
    system = small_site(env)
    seed_scratch(env, system, {"/d/a": 5 * MB, "/d/b": 5 * MB})
    job = system.archive("/d", "/a", cfg_small(watchdog_interval=10.0))
    stats = env.run(job.done)
    assert not stats.aborted
    n = len(stats.watchdog_history)
    env.run(until=env.now + 200.0)
    assert len(stats.watchdog_history) == n


def test_watchdog_still_aborts_wedged_restore():
    """Recovery must not defang the watchdog: with every drive dead and
    unrepaired, acquire blocks forever and the stall-abort still fires."""
    env = Environment()
    system = small_site(env, n_tape_drives=1, n_fta=2)
    migrate_tree(env, system, "/cold", 4, 10 * MB)
    system.inject_faults(FaultPlan(seed=sweep(1)).drive_failure(at=0.0, drive="drv00"))
    cfg = cfg_small(num_workers=2, num_tapeprocs=1,
                    watchdog_interval=50.0, stall_timeout=300.0)
    job = system.retrieve("/cold", "/back", cfg)
    stats = env.run(job.done)
    assert stats.aborted
    assert "watchdog" in stats.abort_reason
