"""The Manager rank: queues, job assignment, completion detection.

Mirrors §4.1.1's responsibility list: starts the parallel tree walk,
feeds DirQ to ReadDir procs, batches exposed files into NameQ stat jobs,
classifies stated files into CopyQ (with N-to-1 chunking and ArchiveFUSE
N-to-N for the largest files) or TapeCQs (tape-ordered restore), hands
restored tape files back to Workers for the archive->scratch hop, pushes
progress lines to the OutPutProc, and finalises by broadcasting Exit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import replace
from typing import Callable, Iterable, Optional

from repro.faults import FailureRecord
from repro.mpisim import SimComm
from repro.pfs import PathError
from repro.pftool.config import PftoolConfig, RuntimeContext
from repro.pftool.messages import (
    Abort,
    CompareJob,
    CompareResult,
    ContainerDst,
    CopyJob,
    CopyResult,
    DirJob,
    DirResult,
    Exit,
    FileSpec,
    FuseChunkDst,
    Retry,
    StatJob,
    StatResult,
    TAG_JOB,
    TAG_OUTPUT,
    TAG_RETRY,
    TAG_TAPEINFO,
    TapeInfo,
    TapeJob,
    TapeResult,
    WorkRequest,
)
from repro.pftool.stats import JobStats
from repro.sim import Environment, Event, Process

__all__ = ["Abort", "Manager"]

#: cap on retained pfls output lines (the rest are counted, not stored)
MAX_OUTPUT_LINES = 10_000

#: failure classes worth retrying — namespace ('path') errors are
#: deterministic and requeueing them only delays the permanent verdict
NON_RETRYABLE_CLASSES = frozenset({"path"})


class Manager:
    """Rank-0 logic for one PFTool job."""

    def __init__(
        self,
        env: Environment,
        comm: SimComm,
        cfg: PftoolConfig,
        ctx: RuntimeContext,
        op: str,
        src_root: str,
        dst_root: Optional[str],
        stats: JobStats,
        done: Event,
        journal=None,
        spawn: Optional[Callable[..., Process]] = None,
    ) -> None:
        self.env = env
        self.comm = comm
        self.cfg = cfg
        self.ctx = ctx
        self.op = op  # 'copy' | 'list' | 'compare'
        self.src_root = src_root.rstrip("/") or "/"
        self.dst_root = (dst_root.rstrip("/") or "/") if dst_root else None
        self.stats = stats
        self.done = done
        #: optional JobJournal: chunk/file completion records written as
        #: results land, consulted by the restart path so a resumed job
        #: never re-copies past the journal frontier
        self.journal = journal
        #: starts the Manager's helper processes; PftoolJob passes one
        #: that counts them, so the job knows when they have all ended
        self._spawn = spawn or env.process

        self.dir_q: deque[DirJob] = deque()
        self.name_q: deque[StatJob] = deque()
        self.copy_q: deque = deque()  # CopyJob | CompareJob
        self.tape_q: deque[TapeJob] = deque()
        self.idle: dict[str, deque[int]] = {
            "readdir": deque(),
            "worker": deque(),
            "tape": deque(),
        }
        self.out_dir = 0
        self.out_stat = 0
        self.out_copy = 0
        self.out_tape = 0
        self.pending_lookups = 0
        #: dst path -> queued chunk jobs waiting for the create-chunk
        self.waiting_chunks: dict[str, list[CopyJob]] = {}
        #: destinations whose provisioning chunk has completed
        self.created_dsts: set[str] = set()
        #: (archive_path, oid, nbytes, dst) buffered until the walk ends
        self.tape_buffer: list[tuple[str, int, int, str]] = []
        #: member copy jobs waiting for their container's tape recall
        self.parked_container_jobs: dict[str, list[CopyJob]] = {}
        self.tape_arranged = False
        self.pending_small: list[tuple[str, str, int]] = []
        self.pending_compare: list[tuple[str, str, int]] = []
        #: 'du' op: subtree -> [files, bytes]
        self.du_totals: dict[str, list[int]] = {}
        self.aborting = False
        #: True once _finish ran: the Exit broadcast is out and nobody
        #: reads the Manager mailbox again, so late Aborts must not land
        self.finishing = False
        #: open "pftool:job" trace span while the job runs (if tracing)
        self._job_span = None
        # -- failure recovery -------------------------------------------
        #: work-unit key -> retry attempts spent so far
        self.retry_counts: dict[tuple, int] = {}
        #: retries scheduled (backoff running) but not yet requeued
        self.pending_retries = 0
        #: destination paths already counted in ``stats.files_failed``
        self.failed_files: set[str] = set()

    # ------------------------------------------------------------------
    # path mapping
    # ------------------------------------------------------------------
    def map_dst(self, src_path: str) -> str:
        if self.dst_root is None:
            raise PathError("operation has no destination")
        if src_path == self.src_root:
            name = src_path.rsplit("/", 1)[-1]
            return f"{self.dst_root}/{name}"
        if not src_path.startswith(self.src_root + "/") and self.src_root != "/":
            raise PathError(f"{src_path!r} escapes {self.src_root!r}")
        rel = src_path[len(self.src_root):].lstrip("/")
        return f"{self.dst_root}/{rel}" if rel else self.dst_root

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> Iterable[Event]:
        monitor = getattr(self.comm, "monitor", None)
        if monitor is not None:
            # Runs inside the manager process: active_process is us.
            monitor.bind_manager(self, self.env.active_process)
        self.stats.started = self.env.now
        self.stats.op = self.op
        tr = self.env.trace
        if tr.enabled:
            self._job_span = tr.begin(
                "pftool:job", tid="manager", cat="pftool",
                args={"op": self.op, "src": self.src_root,
                      "dst": self.dst_root},
            )
        src = self.ctx.src_fs
        try:
            root_inode = src.lookup(self.src_root)
        except PathError as exc:
            self._finish(error=str(exc))
            return
        if self.dst_root is not None and self.op == "copy":
            self.ctx.dst_fs.mkdir(self.dst_root, parents=True)
        if root_inode.is_dir:
            self.dir_q.append(DirJob(self.src_root))
        else:
            self.name_q.append(StatJob((self.src_root,)))
        self._emit(f"starting {self.op}: {self.src_root} -> {self.dst_root}")

        while True:
            self._dispatch()
            if self._complete():
                break
            msg = yield self.comm.recv(0)
            payload = msg.payload
            if isinstance(payload, WorkRequest):
                self.idle[payload.kind].append(payload.rank)
            elif isinstance(payload, Abort):
                self._handle_abort(payload)
                break
            elif msg.tag == TAG_TAPEINFO:
                self._on_tape_info(payload)
            elif isinstance(payload, Retry):
                self._on_retry(payload)
            elif isinstance(payload, DirResult):
                self._on_dir_result(payload)
            elif isinstance(payload, StatResult):
                self._on_stat_result(payload)
            elif isinstance(payload, CopyResult):
                self._on_copy_result(payload)
            elif isinstance(payload, CompareResult):
                self._on_compare_result(payload)
            elif isinstance(payload, TapeResult):
                self._on_tape_result(payload)
            else:  # pragma: no cover - protocol error
                raise RuntimeError(f"manager got unexpected {payload!r}")
        self._finish()

    def _finish(self, error: str = "") -> None:
        self.finishing = True
        if error:
            self.stats.aborted = True
            self.stats.abort_reason = error
        self.stats.finished = self.env.now
        if self._job_span is not None:
            self._job_span.end(
                files_copied=self.stats.files_copied,
                bytes_copied=self.stats.bytes_copied,
                aborted=self.stats.aborted,
            )
            self._job_span = None
        if self.op == "du":
            for key in sorted(self.du_totals):
                files, nbytes = self.du_totals[key]
                self._emit(f"{nbytes}\t{files}\t{key}")
        self._emit(self.stats.report())  # must precede Exit (FIFO delivery)
        # Exit rides TAG_JOB so the tag-filtered receives of ReadDir /
        # Worker / TapeProc ranks actually match it and the rank loops
        # terminate (a tag-0 Exit would sit in their mailboxes forever —
        # exactly the message leak RA002/the InvariantMonitor flag).
        self.comm.broadcast(0, Exit(), TAG_JOB)

        def _settle():
            # let in-flight output lines land before completing the job
            yield self.env.timeout(2 * self.comm.latency)
            monitor = getattr(self.comm, "monitor", None)
            if monitor is not None:
                monitor.check_completion(self.comm, self.stats)
            if not self.done.triggered:
                self.done.succeed(self.stats)

        self._spawn(_settle(), name="pftool-settle")

    def _handle_abort(self, abort: Abort) -> None:
        self.aborting = True
        self.stats.aborted = True
        self.stats.abort_reason = abort.reason

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        # Flush accumulated batches once the walk+stat phase has drained.
        if self._stat_phase_done():
            self._flush_small()
            self._flush_compare()
            if self.tape_buffer and self.pending_lookups == 0:
                self._lookup_tape_locations()
        while self.idle["readdir"] and self.dir_q:
            rank = self.idle["readdir"].popleft()
            self.comm.send(0, rank, self.dir_q.popleft(), TAG_JOB)
            self.out_dir += 1
        while self.idle["worker"] and (self.name_q or self.copy_q):
            rank = self.idle["worker"].popleft()
            # NameQ first: exposing work early keeps the pipeline full.
            if self.name_q:
                self.comm.send(0, rank, self.name_q.popleft(), TAG_JOB)
                self.out_stat += 1
            else:
                job = self.copy_q.popleft()
                self.comm.send(0, rank, job, TAG_JOB)
                self.out_copy += 1
        while self.idle["tape"] and self.tape_q:
            rank = self.idle["tape"].popleft()
            self.comm.send(0, rank, self.tape_q.popleft(), TAG_JOB)
            self.out_tape += 1

    def _stat_phase_done(self) -> bool:
        return not self.dir_q and not self.name_q and self.out_dir == 0 and self.out_stat == 0

    def _complete(self) -> bool:
        if self.aborting:
            return True
        return (
            self._stat_phase_done()
            and not self.copy_q
            and not self.tape_q
            and self.out_copy == 0
            and self.out_tape == 0
            and self.pending_lookups == 0
            and self.pending_retries == 0
            and not self.waiting_chunks
            and not self.tape_buffer
            and not self.parked_container_jobs
            and not self.pending_small
            and not self.pending_compare
        )

    # ------------------------------------------------------------------
    # failure recovery (retry with capped exponential backoff)
    # ------------------------------------------------------------------
    def _count_retry(self, key: tuple, fault_class: str) -> bool:
        """Reserve one retry attempt for *key*; False = give up."""
        if fault_class in NON_RETRYABLE_CLASSES or self.cfg.retry_limit == 0:
            return False
        attempts = self.retry_counts.get(key, 0)
        if attempts >= self.cfg.retry_limit:
            return False
        self.retry_counts[key] = attempts + 1
        by_class = self.stats.retries_by_class
        by_class[fault_class] = by_class.get(fault_class, 0) + 1
        return True

    def _retry_delay(self, key: tuple) -> float:
        attempt = self.retry_counts.get(key, 1)
        return min(
            self.cfg.retry_backoff * (2 ** (attempt - 1)),
            self.cfg.retry_backoff_max,
        )

    def _schedule_retry(self, kind: str, payload, delay: float) -> None:
        """Requeue a failed unit after *delay* via a TAG_RETRY message
        (the Manager only ever mutates queues from its own loop)."""
        self.pending_retries += 1
        comm, env = self.comm, self.env

        def _later():
            yield env.timeout(delay)
            comm.send(0, 0, Retry(kind, payload), TAG_RETRY)

        self._spawn(_later(), name=f"pftool-retry-{kind}")

    def _on_retry(self, retry: Retry) -> None:
        self.pending_retries -= 1
        if retry.kind == "copy":
            # Requeue directly: the waiting_chunks / created_dsts
            # bookkeeping for this job was done on first enqueue.
            self.copy_q.append(retry.payload)
        else:  # 'tape'
            volume, entry = retry.payload
            self.tape_q.append(TapeJob(volume, (entry,)))

    def _permanent_failure(self, dst: str, record: FailureRecord) -> None:
        """Account one file that recovery gave up on (at most once)."""
        by_class = self.stats.failures_by_class
        by_class[record.fault_class] = by_class.get(record.fault_class, 0) + 1
        if dst not in self.failed_files:
            self.failed_files.add(dst)
            self.stats.files_failed += 1
        self._emit(
            f"FAILED [{record.fault_class}] {record.path}: {record.detail}"
        )

    # ------------------------------------------------------------------
    # result handlers
    # ------------------------------------------------------------------
    def _on_dir_result(self, res: DirResult) -> None:
        self.out_dir -= 1
        self.stats.dirs_walked += 1
        if self.op == "copy" and self.dst_root is not None:
            self.ctx.dst_fs.mkdir(self.map_dst(res.path), parents=True)
        for sub in res.subdirs:
            self.dir_q.append(DirJob(sub))
        files = list(res.files)
        for i in range(0, len(files), self.cfg.stat_batch):
            self.name_q.append(StatJob(tuple(files[i : i + self.cfg.stat_batch])))

    def _on_stat_result(self, res: StatResult) -> None:
        self.out_stat -= 1
        for spec in res.specs:
            self.stats.files_seen += 1
            if self.op == "list":
                state = "migrated" if spec.migrated else "resident"
                self._list_line(f"{spec.path}\t{spec.size}\t{state}")
                continue
            if self.op == "du":
                self._account_du(spec)
                continue
            if self.op == "compare":
                self.pending_compare.append(
                    (spec.path, self.map_dst(spec.path), spec.size)
                )
                if len(self.pending_compare) >= self.cfg.copy_batch:
                    self._flush_compare()
                continue
            self._plan_copy(spec)

    def _plan_copy(self, spec: FileSpec) -> None:
        dst = self.map_dst(spec.path)
        if spec.is_fuse and self.ctx.fuse is not None:
            self._plan_fuse_restore_or_copy(spec, dst)
            return
        packed = self._packed_location(spec.path)
        if packed is not None:
            self._plan_packed_copy(spec, dst, packed)
            return
        if spec.migrated:
            # Restore direction: data must come off tape first.
            self.tape_buffer.append(
                (spec.path, spec.tsm_object_id, spec.size, dst)
            )
            return
        if self.cfg.restart and self._dst_current(spec, dst):
            self.stats.files_skipped += 1
            self.stats.bytes_skipped += spec.size
            return
        self._enqueue_data_copy(spec.path, dst, spec.size)

    def _packed_location(self, path: str) -> Optional[tuple[str, int]]:
        """(container, offset) when *path* is a §7 packed member entry."""
        try:
            inode = self.ctx.src_fs.lookup(path)
        except PathError:
            return None
        return inode.xattrs.get("__packed_in__")

    def _plan_packed_copy(
        self, spec: FileSpec, dst: str, packed: tuple[str, int]
    ) -> None:
        """Restore/copy one packed member: data streams out of its
        container (recalling the container from tape first if needed)."""
        container, offset = packed
        job = CopyJob(
            chunk_of=(container, dst, spec.size),
            offset=0,
            length=spec.size,
            src_offset=offset,
            token_src=spec.path,
        )
        cnode = self.ctx.src_fs.lookup(container)
        if cnode.is_stub:
            parked = self.parked_container_jobs.setdefault(container, [])
            if not parked:  # first member: queue ONE recall of the container
                self.tape_buffer.append(
                    (container, cnode.tsm_object_id, cnode.size,
                     ContainerDst(container))
                )
            parked.append(job)
            return
        self._enqueue_chunk_job(job, dst)

    def _dst_current(self, spec: FileSpec, dst: str) -> bool:
        try:
            dnode = self.ctx.dst_fs.lookup(dst)
        except PathError:
            return False
        if not dnode.is_file or dnode.size != spec.size:
            return False
        if dnode.mtime < spec.mtime:
            return False
        done_ranges = dnode.xattrs.get("__chunks_done__")
        if done_ranges is not None:
            # dedupe: a re-delivered retry may have recorded a range twice
            # (dict.fromkeys keeps insertion order, unlike a set - RA001)
            covered = sum(l for _, l in dict.fromkeys(map(tuple, done_ranges)))
            return covered >= spec.size
        if self.journal is not None and self.journal.file_done(dst, spec.size):
            return True
        # A bare size/mtime match is NOT proof the data landed: a sized
        # create makes a full-size hole immediately, so a crash before
        # completion (set_token) would otherwise get skipped on resume.
        return "__inflight__" not in dnode.xattrs

    def _enqueue_chunk_job(self, job: CopyJob, dst_key: str) -> None:
        """Serialize destination provisioning: the first chunk job for a
        destination carries ``create=True``; the rest wait until the
        provisioning result arrives (then flow into CopyQ freely)."""
        if dst_key in self.created_dsts:
            self.copy_q.append(job)
        elif dst_key in self.waiting_chunks:
            self.waiting_chunks[dst_key].append(job)
        else:
            self.waiting_chunks[dst_key] = []
            self.copy_q.append(replace(job, create=True))

    def _enqueue_data_copy(self, src: str, dst: str, size: int) -> None:
        cfg = self.cfg
        if (
            cfg.fuse_threshold
            and self.ctx.fuse is not None
            and size >= cfg.fuse_threshold
            and self.ctx.fuse.fs is self.ctx.dst_fs
        ):
            # ArchiveFUSE N-to-N: one worker per fuse chunk.
            n = max(1, math.ceil(size / self.ctx.fuse.chunk_size))
            self.stats.fuse_files += 1
            for i in range(n):
                off = i * self.ctx.fuse.chunk_size
                self._enqueue_chunk_job(
                    CopyJob(
                        chunk_of=(src, dst, size),
                        offset=off,
                        length=min(self.ctx.fuse.chunk_size, size - off),
                        fuse_index=i,
                    ),
                    dst,
                )
            return
        if size >= cfg.chunk_threshold:
            # N-to-1 chunked copy into a single destination file.
            chunk = cfg.copy_chunk_size
            n = max(1, math.ceil(size / chunk))
            done_ranges = self._restart_ranges(dst) if cfg.restart else set()
            jranges = (
                self.journal.chunk_ranges(dst)
                if cfg.restart and self.journal is not None
                else set()
            )
            if done_ranges:
                self.created_dsts.add(dst)
            queued = 0
            for i in range(n):
                off = i * chunk
                length = min(chunk, size - off)
                if (off, length) in done_ranges:
                    self.stats.bytes_skipped += length
                    if (off, length) in jranges:
                        self.stats.journal_chunks_skipped += 1
                        self.stats.journal_bytes_skipped += length
                    continue
                self._enqueue_chunk_job(
                    CopyJob(chunk_of=(src, dst, size), offset=off, length=length),
                    dst,
                )
                queued += 1
            if not queued:
                self.stats.files_skipped += 1
            return
        self.pending_small.append((src, dst, size))
        if len(self.pending_small) >= cfg.copy_batch:
            self._flush_small()

    def _restart_ranges(self, dst: str) -> set:
        try:
            dnode = self.ctx.dst_fs.lookup(dst)
        except PathError:
            # Journalled ranges are only trusted while the destination they
            # were applied to still exists; a vanished dst restarts cold.
            return set()
        ranges = set(map(tuple, dnode.xattrs.get("__chunks_done__", [])))
        if self.journal is not None:
            ranges |= self.journal.chunk_ranges(dst)
        return ranges

    def _plan_fuse_restore_or_copy(self, spec: FileSpec, dst: str) -> None:
        """Archive-side fuse file: treat each chunk as an independent
        (possibly migrated) source, reassembled into *dst* by range."""
        fuse = self.ctx.fuse
        refs = fuse.chunks(spec.path)
        size = fuse.logical_size(spec.path)
        for ref in refs:
            cnode = self.ctx.src_fs.lookup(ref.path)
            if cnode.is_stub:
                self.tape_buffer.append(
                    (ref.path, cnode.tsm_object_id, ref.length,
                     FuseChunkDst(dst, ref.offset, size, spec.path))
                )
            else:
                self._enqueue_chunk_job(
                    CopyJob(
                        chunk_of=(ref.path, dst, size),
                        offset=ref.offset,
                        length=ref.length,
                        src_offset=0,
                        token_src=spec.path,
                    ),
                    dst,
                )

    def _flush_small(self) -> None:
        if self.pending_small:
            batch = tuple(self.pending_small[: self.cfg.copy_batch])
            del self.pending_small[: self.cfg.copy_batch]
            self.copy_q.append(CopyJob(files=batch, pack=self.cfg.tar_pipe))
            if self.pending_small:
                self._flush_small()

    def _flush_compare(self) -> None:
        if self.pending_compare:
            batch = tuple(self.pending_compare[: self.cfg.copy_batch])
            del self.pending_compare[: self.cfg.copy_batch]
            self.copy_q.append(CompareJob(files=batch))
            if self.pending_compare:
                self._flush_compare()

    # ------------------------------------------------------------------
    # tape arrangement (§4.1.2 item 2)
    # ------------------------------------------------------------------
    def _lookup_tape_locations(self) -> None:
        entries = self.tape_buffer
        self.tape_buffer = []
        self.pending_lookups += 1
        db = self.ctx.tapedb
        env = self.env
        comm = self.comm

        def _helper():
            paths = [e[0] for e in entries]
            if db is not None:
                locs = yield db.locate_many(self.ctx.filespace, paths)
            else:
                locs = {}
            comm.send(0, 0, TapeInfo(tuple(entries), locs), TAG_TAPEINFO)

        self._spawn(_helper(), name="pftool-tapedb-lookup")

    def _on_tape_info(self, info: TapeInfo) -> None:
        self.pending_lookups -= 1
        resolved = []
        for path, oid, nbytes, dst in info.entries:
            loc = info.locs.get(path)
            if loc is None and self.ctx.tsm is not None and oid is not None:
                obj = self.ctx.tsm.locate(oid)  # export-staleness fallback
                if obj is not None:
                    resolved.append((path, obj.object_id, obj.volume, obj.seq,
                                     nbytes, dst))
                    continue
            if loc is None:
                self.stats.files_failed += 1
                self._emit(f"NO TAPE LOCATION for {path}")
                continue
            resolved.append((path, loc.object_id, loc.volume, loc.seq, nbytes, dst))
        by_vol: dict[str, list] = {}
        for path, oid, vol, seq, nbytes, dst in resolved:
            by_vol.setdefault(vol, []).append((path, oid, seq, nbytes, dst))
        tr = self.env.trace
        for vol, items in sorted(by_vol.items()):
            if self.cfg.tape_ordering:
                items.sort(key=lambda e: e[2])  # ascending tape seq
            self.tape_q.append(TapeJob(vol, tuple(items)))
            if tr.enabled:
                tr.instant("pftool:tape_enqueue", tid="manager", cat="pftool",
                           args={"volume": vol, "files": len(items)})
        self.stats.tape_volumes_touched += len(by_vol)

    def _on_tape_result(self, res: TapeResult) -> None:
        self.out_tape -= 1
        for archive_path, nbytes, dst in res.restored:
            self.stats.tape_files_restored += 1
            self.stats.tape_bytes_restored += nbytes
            # "additional restored tape file copy request" -> Workers.
            # The dst is matched structurally — a real path containing
            # '##container##' or '@@' is just a path.
            if isinstance(dst, ContainerDst):
                for job in self.parked_container_jobs.pop(dst.container, []):
                    self._enqueue_chunk_job(job, job.chunk_of[1])
            elif isinstance(dst, FuseChunkDst):
                self._enqueue_chunk_job(
                    CopyJob(
                        chunk_of=(archive_path, dst.dst, dst.total),
                        offset=dst.offset,
                        length=nbytes,
                        src_offset=0,
                        token_src=dst.token_src,
                    ),
                    dst.dst,
                )
            else:
                self._enqueue_data_copy(archive_path, dst, nbytes)
        for entry, record in res.failed:
            path, oid, _seq, _nbytes, dst = entry
            key = ("tape", path, oid)
            if self._count_retry(key, record.fault_class):
                self._schedule_retry(
                    "tape", (res.volume, entry), self._retry_delay(key)
                )
                continue
            self._permanent_tape_failure(entry, record)

    def _permanent_tape_failure(self, entry: tuple, record: FailureRecord) -> None:
        """A tape restore is out of retries; fail every file that depended
        on it so no queue entry waits forever."""
        path, _oid, _seq, _nbytes, dst = entry
        if isinstance(dst, ContainerDst):
            # every member parked behind the container is now unrecoverable
            parked = self.parked_container_jobs.pop(dst.container, [])
            self._permanent_failure(dst.container, record)
            for job in parked:
                self._permanent_failure(job.chunk_of[1], record)
        elif isinstance(dst, FuseChunkDst):
            self._permanent_failure(dst.dst, record)
        else:
            self._permanent_failure(dst, record)

    def _on_copy_result(self, res: CopyResult) -> None:
        self.out_copy -= 1
        if res.error is not None:
            self._recover_chunk_failure(res)
            return
        if res.failures:
            self._recover_batch_failures(res)
        else:
            # legacy path: unstructured failures cannot be retried
            self.stats.files_failed += len(res.failed)
        self.stats.bytes_copied += res.bytes_moved
        if res.chunk_of is not None:
            src, dst, total = res.chunk_of
            self.stats.chunks_copied += 1
            if res.created:
                self.created_dsts.add(dst)
                if dst in self.waiting_chunks:
                    self.copy_q.extend(self.waiting_chunks.pop(dst))
            # Completion accounting per chunked file.  A retried chunk can
            # be delivered more than once (e.g. the work succeeded but a
            # later failure re-ran it), so count each range once and credit
            # the file exactly when coverage crosses the total.
            dnode = self.ctx.dst_fs.lookup(dst)
            ranges = dnode.xattrs.setdefault("__chunks_done__", [])
            distinct = set(map(tuple, ranges))
            before = sum(l for _, l in distinct)
            rng = (res.offset, res.length)
            if rng not in distinct:
                ranges.append(rng)
                distinct.add(rng)
                if self.journal is not None:
                    self.journal.record_chunk(
                        dst, res.offset, res.length, total=total, src=src
                    )
            covered = sum(l for _, l in distinct)
            if before < total <= covered:
                self.stats.files_copied += 1
                try:
                    token_path = res.token_src or src
                    token = self.ctx.src_fs.lookup(token_path).content_token
                    self.ctx.dst_fs.set_token(dst, token)
                except PathError:
                    pass
                if self.journal is not None:
                    self.journal.record_file(src, dst, total)
        else:
            self.stats.files_copied += res.files_done
            if self.journal is not None:
                for s, d, n in res.done_specs:
                    self.journal.record_file(s, d, n)

    def _recover_chunk_failure(self, res: CopyResult) -> None:
        """A chunk (or fuse-chunk) CopyJob died: retry it, or give up and
        unwedge everything parked behind it."""
        src, dst, total = res.chunk_of
        job = res.job
        key = (
            "chunk", dst, res.offset, res.length,
            job.fuse_index if job is not None else None,
        )
        if job is not None and self._count_retry(key, res.error.fault_class):
            self._schedule_retry("copy", job, self._retry_delay(key))
            return
        self._permanent_failure(dst, res.error)
        if job is not None and job.create and not res.created:
            # The provisioning chunk never created the destination, so the
            # parked sibling chunks can never run — drop them with the file
            # instead of leaking them in waiting_chunks forever.
            self.waiting_chunks.pop(dst, None)

    def _recover_batch_failures(self, res: CopyResult) -> None:
        """Per-file retry accounting for a small-file batch (packed or
        not); surviving specs are requeued as one new batch."""
        retry_specs = []
        for spec, record in zip(res.failed_specs, res.failures):
            s, d, _ = spec
            if self._count_retry(("file", s, d), record.fault_class):
                retry_specs.append(spec)
            else:
                self._permanent_failure(d, record)
        if retry_specs:
            pack = res.job.pack if res.job is not None else False
            key = ("file",) + retry_specs[0][:2]
            self._schedule_retry(
                "copy",
                CopyJob(files=tuple(retry_specs), pack=pack),
                self._retry_delay(key),
            )

    def _on_compare_result(self, res: CompareResult) -> None:
        self.out_copy -= 1
        self.stats.files_compared += res.compared
        self.stats.compare_mismatches += len(res.mismatches)
        for path in res.mismatches:
            self._list_line(f"MISMATCH {path}")

    def _account_du(self, spec: FileSpec) -> None:
        """Roll file sizes up into the per-top-level-entry totals the
        paper's users would get from a (tape-safe) parallel ``du``."""
        rel = spec.path[len(self.src_root):].lstrip("/") if self.src_root != "/" else spec.path.lstrip("/")
        top = rel.split("/", 1)[0] if rel else spec.path
        key = f"{self.src_root.rstrip('/')}/{top}" if rel else spec.path
        bucket = self.du_totals.setdefault(key, [0, 0])
        bucket[0] += 1
        bucket[1] += spec.size
        self.stats.bytes_copied += 0  # du moves no data

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def _emit(self, line: str) -> None:
        self.comm.send(0, 1, line, TAG_OUTPUT)

    def _list_line(self, line: str) -> None:
        if len(self.stats.output_lines) < MAX_OUTPUT_LINES:
            self._emit(line)
