"""The non-manager ranks: ReadDir, Worker, TapeProc, OutPutProc, WatchDog.

Each is a DES process bound to a cluster node; data operations issued by
a rank originate from that node, so copies naturally contend on the
node's NIC/HBA in the fabric — ten workers on one FTA node share one
10GigE link exactly as the hardware would.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.faults import FailureRecord, classify_failure
from repro.pfs import PathError
from repro.pftool.config import PftoolConfig, RuntimeContext
from repro.pftool.messages import (
    Abort,
    CompareJob,
    CompareResult,
    CopyJob,
    CopyResult,
    DirJob,
    DirResult,
    Exit,
    FileSpec,
    StatJob,
    StatResult,
    TAG_JOB,
    TAG_RESULT,
    TAG_WORK_REQ,
    TapeJob,
    TapeResult,
    WorkRequest,
)
from repro.pftool.stats import JobStats, WatchdogSample
from repro.mpisim import SimComm
from repro.sim import AllOf, Environment, Event, SimulationError

__all__ = [
    "output_proc",
    "readdir_proc",
    "tape_proc",
    "watchdog_proc",
    "worker_proc",
]


def readdir_proc(
    env: Environment, comm: SimComm, rank: int, cfg: PftoolConfig, ctx: RuntimeContext
) -> Iterable[Event]:
    """Expose directories: readdir + classify entries (§4.1.1 ReadDir)."""
    fs = ctx.src_fs
    while True:
        comm.send(rank, 0, WorkRequest(rank, "readdir"), TAG_WORK_REQ)
        msg = yield comm.recv(rank, source=0, tag=TAG_JOB)
        job = msg.payload
        if isinstance(job, Exit):
            return
        assert isinstance(job, DirJob)
        t0 = env.now
        try:
            entries = fs.readdir(job.path)
        except PathError:
            entries = []
        cost = max(len(entries), 1) * cfg.readdir_entry_cost
        yield env.timeout(cost)
        base = job.path.rstrip("/")
        subdirs = tuple(
            f"{base}/{name}"
            for name, node in entries
            if node.is_dir and not name.startswith(".")
        )
        files = tuple(
            f"{base}/{name}"
            for name, node in entries
            if node.is_file and not name.startswith(".")
        )
        comm.send(
            rank, 0, DirResult(job.path, subdirs, files, env.now - t0), TAG_RESULT
        )


def worker_proc(
    env: Environment, comm: SimComm, rank: int, cfg: PftoolConfig, ctx: RuntimeContext
) -> Iterable[Event]:
    """Stat + copy + compare execution (§4.1.1 Worker)."""
    node = ctx.node_of_rank(rank)
    src, dst = ctx.src_fs, ctx.dst_fs
    while True:
        comm.send(rank, 0, WorkRequest(rank, "worker"), TAG_WORK_REQ)
        msg = yield comm.recv(rank, source=0, tag=TAG_JOB)
        job = msg.payload
        if isinstance(job, Exit):
            return
        if isinstance(job, StatJob):
            specs = []
            for path in job.paths:
                try:
                    inode = yield src.stat_op(path)
                except PathError:
                    continue
                is_fuse = ctx.fuse is not None and ctx.fuse.fs is src and (
                    ctx.fuse.is_fuse_file(path)
                )
                size = (
                    ctx.fuse.logical_size(path)
                    if is_fuse
                    else inode.size
                )
                specs.append(
                    FileSpec(
                        path=path,
                        size=size,
                        migrated=inode.is_stub,
                        tsm_object_id=inode.tsm_object_id,
                        mtime=inode.mtime,
                        is_fuse=is_fuse,
                    )
                )
            comm.send(rank, 0, StatResult(tuple(specs)), TAG_RESULT)
        elif isinstance(job, CopyJob):
            try:
                result = yield env.process(
                    _do_copy(env, node, cfg, ctx, job), name=f"w{rank}-copy"
                )
            except (PathError, SimulationError) as exc:
                # The copy died, the worker must not: report the failure so
                # the Manager's out_copy counter always drains (a crashed
                # worker would wedge completion detection forever).
                result = _copy_failure(job, exc)
            comm.send(rank, 0, result, TAG_RESULT)
        elif isinstance(job, CompareJob):
            try:
                result = yield env.process(
                    _do_compare(env, node, ctx, job), name=f"w{rank}-cmp"
                )
            except (PathError, SimulationError):
                result = CompareResult(
                    len(job.files), 0, tuple(s for s, _, _ in job.files)
                )
            comm.send(rank, 0, result, TAG_RESULT)
        else:  # pragma: no cover
            raise RuntimeError(f"worker got unexpected {job!r}")


def _copy_failure(job: CopyJob, exc: BaseException) -> CopyResult:
    """A CopyResult describing a CopyJob that died wholesale."""
    if job.chunk_of is not None:
        record = FailureRecord(
            job.chunk_of[0], classify_failure(exc), str(exc)
        )
        return CopyResult(
            0, 0,
            chunk_of=job.chunk_of,
            offset=job.offset,
            length=job.length,
            token_src=job.token_src,
            error=record,
            job=job,
        )
    records = tuple(
        FailureRecord(s, classify_failure(exc), str(exc)) for s, _, _ in job.files
    )
    return CopyResult(
        0, 0,
        failed=tuple(s for s, _, _ in job.files),
        failed_specs=job.files,
        failures=records,
        job=job,
    )


def _do_copy(env, node, cfg, ctx, job: CopyJob):
    src_fs, dst_fs = ctx.src_fs, ctx.dst_fs
    if job.chunk_of is None:
        if job.pack and job.files:
            return (yield from _do_packed_copy(env, node, cfg, ctx, job))
        # Batch of whole small files.
        files_done = 0
        nbytes = 0
        done_specs = []
        failed = []
        failed_specs = []
        failures = []
        for s, d, n in job.files:
            try:
                token = src_fs.lookup(s).content_token
                read = src_fs.read_range(node, s, 0, n)
                create = dst_fs.create_sized(d, n, pool=cfg.storage_pool)
                yield create
                write = dst_fs.write_range(node, d, 0, n)
                yield AllOf(env, [read, write])
                dst_fs.set_token(d, token)
                files_done += 1
                nbytes += n
                done_specs.append((s, d, n))
            except (PathError, SimulationError) as exc:
                failed.append(s)
                failed_specs.append((s, d, n))
                failures.append(
                    FailureRecord(s, classify_failure(exc), str(exc))
                )
        return CopyResult(
            files_done, nbytes,
            failed=tuple(failed),
            failed_specs=tuple(failed_specs),
            failures=tuple(failures),
            job=job,
            done_specs=tuple(done_specs),
        )

    s, d, total = job.chunk_of
    created = False
    tr = env.trace
    span = tr.begin(
        "copy:chunk", tid=node, cat="pftool",
        args={"dst": d, "offset": job.offset, "length": job.length,
              "total": total},
    ) if tr.enabled else None
    if job.create:
        if job.fuse_index is not None and ctx.fuse is not None:
            yield ctx.fuse.create_large(d, total, pool=cfg.storage_pool)
        else:
            yield dst_fs.create_sized(d, total, pool=cfg.storage_pool)
        created = True
    read = src_fs.read_range(node, s, job.read_offset, job.length)
    if job.fuse_index is not None and ctx.fuse is not None:
        write = ctx.fuse.write_chunk(node, d, job.fuse_index)
    else:
        write = dst_fs.write_range(node, d, job.offset, job.length)
    yield AllOf(env, [read, write])
    if span is not None:
        span.end()
    return CopyResult(
        0,
        job.length,
        chunk_of=job.chunk_of,
        offset=job.offset,
        length=job.length,
        created=created,
        token_src=job.token_src,
    )


def _do_packed_copy(env, node, cfg, ctx, job: CopyJob):
    """§7 grass-files mode: the whole batch becomes ONE container object.

    One ``create_sized`` + one combined data stream replace per-file
    creates and per-file streams; member entries are namespace-only
    records pointing into the container (a tar index, in effect).  The
    container later migrates to tape as a single object, extending the
    aggregation win end-to-end.
    """
    src_fs, dst_fs = ctx.src_fs, ctx.dst_fs
    total = sum(n for _, _, n in job.files)
    dst_dir = job.files[0][1].rsplit("/", 1)[0] or "/"
    container = f"{dst_dir}/.pftar_{env.next_id('pftar'):08d}"
    reads = [src_fs.read_range(node, s, 0, n) for s, _, n in job.files]
    yield dst_fs.create_sized(container, total, pool=cfg.storage_pool)
    write = dst_fs.write_range(node, container, 0, total)
    yield AllOf(env, reads + [write])
    # member entries: metadata-only, batched into one timed op
    if dst_fs.metadata_op_time:
        yield env.timeout(dst_fs.metadata_op_time)
    offset = 0
    failed = []
    failed_specs = []
    failures = []
    for s, d, n in job.files:
        try:
            token = src_fs.lookup(s).content_token
        except PathError as exc:
            failed.append(s)
            failed_specs.append((s, d, n))
            failures.append(FailureRecord(s, classify_failure(exc), str(exc)))
            offset += n
            continue
        try:
            member = dst_fs.lookup(d)
        except PathError:
            parent = d.rsplit("/", 1)[0] or "/"
            if not dst_fs.exists(parent):
                dst_fs.mkdir(parent, parents=True)
            member = dst_fs.namespace.create(d, env.now)
        member.size = n
        member.content_token = token
        member.xattrs["__packed_in__"] = (container, offset)
        offset += n
    return CopyResult(
        len(job.files) - len(failed), total,
        failed=tuple(failed),
        failed_specs=tuple(failed_specs),
        failures=tuple(failures),
        job=job,
        done_specs=tuple(
            spec for spec in job.files if spec[0] not in set(failed)
        ),
    )


def _do_compare(env, node, ctx, job: CompareJob):
    src_fs, dst_fs = ctx.src_fs, ctx.dst_fs
    compared = 0
    nbytes = 0
    mismatches = []
    for s, d, n in job.files:
        try:
            r1 = src_fs.read_file(node, s)
            r2 = dst_fs.read_file(node, d)
            got = yield AllOf(env, [r1, r2])
            (_, t1), (_, t2) = got[r1], got[r2]
            compared += 1
            nbytes += 2 * n
            if t1 != t2:
                mismatches.append(s)
        except (PathError, SimulationError):  # missing dest counts as mismatch
            compared += 1
            mismatches.append(s)
    return CompareResult(compared, nbytes, tuple(mismatches))


def tape_proc(
    env: Environment, comm: SimComm, rank: int, cfg: PftoolConfig, ctx: RuntimeContext
) -> Iterable[Event]:
    """Restore migrated files from tape, in the Manager's given order
    (§4.1.1 TapeProc)."""
    node = ctx.node_of_rank(rank)
    session = ctx.tsm.open_session(node, lan_free=True) if ctx.tsm else None
    while True:
        comm.send(rank, 0, WorkRequest(rank, "tape"), TAG_WORK_REQ)
        msg = yield comm.recv(rank, source=0, tag=TAG_JOB)
        job = msg.payload
        if isinstance(job, Exit):
            return
        assert isinstance(job, TapeJob)
        restored = []
        failed = []
        for entry in job.entries:
            path, oid, seq, nbytes, dst = entry
            tr = env.trace
            span = tr.begin(
                "tape:restore", tid=node, cat="pftool",
                args={"path": path, "volume": job.volume, "seq": seq,
                      "nbytes": nbytes},
            ) if tr.enabled else None
            try:
                retrieve = ctx.tsm.retrieve_objects(session, [oid])
                ctx.src_fs.restore_data(path)
                writeback = ctx.src_fs.write_range(node, path, 0, nbytes)
                yield AllOf(env, [retrieve, writeback])
                if span is not None:
                    span.end()
            except (PathError, SimulationError) as exc:
                # one bad entry must not kill the volume run — later
                # entries may live on healthy media
                failed.append(
                    (entry, FailureRecord(path, classify_failure(exc), str(exc)))
                )
                continue
            restored.append((path, nbytes, dst))
        comm.send(
            rank, 0,
            TapeResult(job.volume, tuple(restored), tuple(failed)),
            TAG_RESULT,
        )


def output_proc(
    env: Environment, comm: SimComm, rank: int, stats: JobStats
) -> Iterable[Event]:
    """Collect output/progress lines (§4.1.1 OutPutProc)."""
    while True:
        msg = yield comm.recv(rank)
        if isinstance(msg.payload, Exit):
            return
        stats.output_lines.append(str(msg.payload))


def watchdog_proc(
    env: Environment,
    comm: SimComm,
    rank: int,
    cfg: PftoolConfig,
    stats: JobStats,
) -> Iterable[Event]:
    """Progress recorder + stall killer (§4.1.1 WatchDog).

    Samples the shared job counters every ``watchdog_interval``; if no
    bytes move for ``stall_timeout`` the job is aborted — the paper's
    'forces the termination of PFTool if the data copy is stalled'.
    """
    last_files = 0
    last_bytes = 0
    stalled_since: Optional[float] = None
    while True:
        wake = env.timeout(cfg.watchdog_interval)
        incoming = comm.recv(rank)
        yield wake | incoming
        if incoming.triggered:
            # The message was consumed from the mailbox even if the timer
            # fired in the same instant — always honour it.
            if isinstance(incoming.value.payload, Exit):
                return
        else:
            # Withdraw the unused receive eagerly.  Merely dropping the
            # callbacks would leave a live get in the mailbox queue that
            # silently swallows the next message — including Exit, leaving
            # the watchdog running (and aborting) after the job finished.
            incoming.cancel()
        files = stats.files_copied + stats.tape_files_restored
        nbytes = stats.bytes_copied + stats.tape_bytes_restored
        stats.watchdog_history.append(
            WatchdogSample(
                env.now, files, nbytes, files - last_files, nbytes - last_bytes
            )
        )
        if nbytes == last_bytes and files == last_files:
            if stalled_since is None:
                stalled_since = env.now
            elif env.now - stalled_since >= cfg.stall_timeout:
                comm.send(rank, 0, Abort("watchdog: no progress"), TAG_RESULT)
                stalled_since = None
        else:
            stalled_since = None
        last_files, last_bytes = files, nbytes
