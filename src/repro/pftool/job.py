"""PFTool job orchestration and the pfls/pfcp/pfcm commands.

A :class:`PftoolJob` builds the communicator, spawns every rank as a DES
process, and exposes a completion event that fires with the job's
:class:`~repro.pftool.stats.JobStats`.  Once that event has been
processed and every rank has ended, the job drops its mailboxes, rank
processes and Manager and keeps only its results (see
:meth:`PftoolJob._release`).

Crash recovery (see :mod:`repro.recovery`): pass a
:class:`~repro.recovery.journal.JobJournal` and the Manager appends a
completion record as each chunk/file lands; :meth:`PftoolJob.crash` and
:meth:`PftoolJob.crash_rank` model the whole job (or one FTA rank) dying
mid-flight; :meth:`PftoolJob.resume` rebuilds a job from the journal and
re-copies only what never made it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Generator, Optional

from repro.analysis.monitor import default_monitor
from repro.faults import CrashFault
from repro.mpisim import SimComm
from repro.pftool.config import PftoolConfig, RuntimeContext
from repro.pftool.manager import Abort, Manager
from repro.pftool.messages import TAG_RESULT
from repro.pftool.ranks import (
    output_proc,
    readdir_proc,
    tape_proc,
    watchdog_proc,
    worker_proc,
)
from repro.pftool.stats import JobStats
from repro.recovery.journal import JobJournal
from repro.sim import Environment, Event, Process, SimulationError

__all__ = ["PftoolJob", "pfcm", "pfcp", "pfdu", "pfls"]


class PftoolJob:
    """One invocation of pfls / pfcp / pfcm.

    Rank layout: 0 Manager, 1 OutPutProc, 2 WatchDog, then ReadDir
    ranks, Worker ranks, TapeProc ranks.
    """

    def __init__(
        self,
        env: Environment,
        ctx: RuntimeContext,
        op: str,
        src: str,
        dst: Optional[str] = None,
        cfg: Optional[PftoolConfig] = None,
        journal: Optional[JobJournal] = None,
    ) -> None:
        if op not in ("copy", "list", "compare", "du"):
            raise SimulationError(f"unknown pftool op {op!r}")
        if op in ("copy", "compare") and dst is None:
            raise SimulationError(f"{op} needs a destination")
        self.env = env
        self.ctx = ctx
        self.op = op
        self.src = src
        self.dst = dst
        self.cfg = cfg or PftoolConfig()
        self.stats = JobStats(op=op)
        self.done: Event = env.event()
        self.journal = journal
        if journal is not None:
            if journal.job_meta is None:
                journal.open_job(
                    op, src, dst or "",
                    src_fs=getattr(ctx.src_fs, "name", ""),
                    dst_fs=getattr(ctx.dst_fs, "name", ""),
                )
            elif not self.cfg.restart:
                # A used journal on a fresh job would silently inherit the
                # previous job's meta — and its chunk/file records would
                # dedupe work this job never did.  Only the restart path
                # (PftoolJob.resume) may bind a journal with history.
                meta = journal.job_meta
                raise SimulationError(
                    f"journal already belongs to a job ({meta['op']} "
                    f"{meta['src']!r} -> {meta['dst']!r}); pass a fresh "
                    "journal, or resume via PftoolJob.resume"
                )
        self.comm = SimComm(env, self.cfg.total_ranks)
        if ctx.fault_injector is not None:
            ctx.fault_injector.bind_comm(self.comm, ctx.node_of_rank)
        self._manager: Optional[Manager] = Manager(
            env, self.comm, self.cfg, ctx, op, src, dst, self.stats,
            self.done, journal=journal, spawn=self._spawn,
        )
        #: ranks that actually run a process (tape ranks may be skipped)
        self.live_ranks: set[int] = set()
        #: rank -> its kernel Process, for crash injection
        self.rank_procs: dict[int, Process] = {}
        #: started rank bodies and Manager helpers that have not yet
        #: returned, raised or been killed
        self._running = 0
        monitor = ctx.monitor if ctx.monitor is not None else default_monitor()
        if monitor is not None:
            monitor.attach(self)
            # Long-running services reuse one monitor across thousands of
            # jobs; detach on completion (success or crash-fail) so the
            # monitor never accumulates dead jobs' state.
            self.done.callbacks.append(lambda _ev: monitor.detach(self))
        # after the detach above: the monitor's audits read the mailboxes
        self.done.callbacks.append(self._on_done)
        self._spawn_ranks()

    def _spawn_ranks(self) -> None:
        env, comm, cfg, ctx = self.env, self.comm, self.cfg, self.ctx
        spawn = self._spawn
        procs = self.rank_procs
        procs[0] = spawn(self._manager.run(), "pftool-manager")
        procs[1] = spawn(output_proc(env, comm, 1, self.stats), "pftool-output")
        procs[2] = spawn(
            watchdog_proc(env, comm, 2, cfg, self.stats), "pftool-watchdog"
        )
        self.live_ranks.update((0, 1, 2))
        rank = 3
        for _ in range(cfg.num_readdir):
            procs[rank] = spawn(
                readdir_proc(env, comm, rank, cfg, ctx), f"pftool-readdir{rank}"
            )
            self.live_ranks.add(rank)
            rank += 1
        for _ in range(cfg.num_workers):
            procs[rank] = spawn(
                worker_proc(env, comm, rank, cfg, ctx), f"pftool-worker{rank}"
            )
            self.live_ranks.add(rank)
            rank += 1
        for _ in range(cfg.num_tapeprocs):
            if ctx.tsm is not None:
                procs[rank] = spawn(
                    tape_proc(env, comm, rank, cfg, ctx), f"pftool-tape{rank}"
                )
                self.live_ranks.add(rank)
            rank += 1

    # -- lifecycle -----------------------------------------------------
    def _spawn(self, body: Generator, name: str) -> Process:
        """Start *body* (a rank or a Manager helper) as a job process."""
        return self.env.process(self._counted(body), name=name)

    def _counted(self, body: Generator) -> Generator:
        # ``yield from`` adds no kernel event, and unlike a callback on the
        # Process it keeps a crashing body's exception surfacing from
        # Environment.run (a Process with callbacks does not crash the run).
        # A body killed before its first step never enters this frame, so
        # it is never counted.
        self._running += 1
        try:
            return (yield from body)
        finally:
            self._running -= 1
            if not self._running and self.done.processed:
                self._release()

    def _on_done(self, _ev: Event) -> None:
        if not self._running:
            self._release()

    def _release(self) -> None:
        """Drop the engine state of a finished job.

        Runs once ``done`` has been processed and every rank body and
        Manager helper has ended, so nothing can touch the communicator
        again.  The job keeps what callers read afterwards: ``stats``,
        ``journal``, ``done``, ``live_ranks`` and ``comm`` with its
        counters.  A service that runs thousands of jobs then holds
        memory in proportion to the jobs in flight, not to every job it
        ever ran.
        """
        self.comm.release()
        self.rank_procs = {}
        self._manager = None

    @property
    def worker_ranks(self) -> list[int]:
        """The Worker (FTA data-mover) ranks, in rank order."""
        first = 3 + self.cfg.num_readdir
        return list(range(first, first + self.cfg.num_workers))

    def cancel(self, reason: str = "cancelled by user") -> None:
        """Abort the job (used by restart experiments / operators).

        A cancel that races completion (the Manager already broadcast
        Exit and will never read its mailbox again) is a no-op — sending
        the Abort anyway would strand it, which the InvariantMonitor
        rightly flags as lost protocol traffic.
        """
        if self.done.triggered or self._manager.finishing:
            return
        self.comm.send(0, 0, Abort(reason), TAG_RESULT)

    # -- crash model ---------------------------------------------------
    def crash(self, cause=None) -> None:
        """Kill every rank at once (the whole MPI job dies).

        In-flight chunk copies are torn down mid-transfer; nothing is
        retried and no statistics settle.  ``done`` fails with the crash
        so ``env.run(job.done)`` surfaces it — recovery goes through
        :meth:`resume` with the job's journal.
        """
        if not isinstance(cause, BaseException):
            cause = CrashFault(
                f"pftool {self.op} crashed at t={self.env.now:.1f}"
            )
        for proc in self.rank_procs.values():
            proc.kill(cause)
        self.stats.aborted = True
        self.stats.abort_reason = str(cause)
        if not self.done.triggered:
            self.done.fail(cause)

    def crash_rank(self, rank: int, cause=None) -> None:
        """Kill a single rank (one FTA node's mover process dies).

        The rest of the job keeps draining; work assigned to the dead
        rank never completes, so the WatchDog's stall detector aborts the
        job once everything else has finished — the operator then resumes
        from the journal.
        """
        proc = self.rank_procs.get(rank)
        if proc is None:
            return
        if not isinstance(cause, BaseException):
            cause = CrashFault(
                f"pftool rank {rank} crashed at t={self.env.now:.1f}"
            )
        proc.kill(cause)

    @classmethod
    def resume(
        cls,
        env: Environment,
        ctx: RuntimeContext,
        journal: JobJournal,
        cfg: Optional[PftoolConfig] = None,
    ) -> "PftoolJob":
        """Rebuild a job from its journal and finish the remaining work.

        The restart re-walks the tree (directory state is authoritative)
        but consults the journal in ``_dst_current`` / ``_restart_ranges``
        so whole files and chunk ranges recorded complete are never
        re-copied.
        """
        meta = journal.job_meta
        if meta is None:
            raise SimulationError("journal has no job_open record to resume")
        cfg = replace(cfg or PftoolConfig(), restart=True)
        return cls(env, ctx, meta["op"], meta["src"], meta["dst"] or None,
                   cfg, journal=journal)

    def __repr__(self) -> str:
        return f"<PftoolJob {self.op} ranks={self.cfg.total_ranks}>"


def pfcp(
    env: Environment,
    ctx: RuntimeContext,
    src: str,
    dst: str,
    cfg: Optional[PftoolConfig] = None,
    journal: Optional[JobJournal] = None,
) -> PftoolJob:
    """Parallel copy (``pfcp``): tree-walk *src* and copy to *dst*.

    Returns the job; ``env.run(job.done)`` yields its JobStats.
    """
    return PftoolJob(env, ctx, "copy", src, dst, cfg, journal=journal)


def pfls(
    env: Environment,
    ctx: RuntimeContext,
    src: str,
    cfg: Optional[PftoolConfig] = None,
) -> PftoolJob:
    """Parallel list (``pfls``): tree-walk and stat, no data movement."""
    return PftoolJob(env, ctx, "list", src, None, cfg)


def pfdu(
    env: Environment,
    ctx: RuntimeContext,
    src: str,
    cfg: Optional[PftoolConfig] = None,
) -> PftoolJob:
    """Parallel disk-usage rollup (``pfdu``): per-subtree file/byte totals
    from a parallel tree walk — the tape-safe answer to ``du -s *``."""
    return PftoolJob(env, ctx, "du", src, None, cfg)


def pfcm(
    env: Environment,
    ctx: RuntimeContext,
    src: str,
    dst: str,
    cfg: Optional[PftoolConfig] = None,
) -> PftoolJob:
    """Parallel compare (``pfcm``): byte-content verification of a copy."""
    return PftoolJob(env, ctx, "compare", src, dst, cfg)
