"""The HSM manager: migration, stubs, and per-node recall daemons.

Migration (LAN-free) runs the GPFS read and the tape write as concurrent
flows on the fabric — both cross the migrating node's HBA, so the fluid
model naturally reproduces the pipeline (tape rate dominates, but HBA
contention shows up when one node drives several drives at once).

Recall routing policies:

``naive``
    Each request goes to the next node round-robin, with no awareness of
    which tape it touches — TSM HSM's behaviour per §6.2.  Consecutive
    requests for one tape land on different nodes and every handoff
    rewinds + re-verifies the label.
``sticky``
    All requests for a volume go to one (hashed) node, eliminating
    handoffs — the fix the paper asks IBM for.
"""

from __future__ import annotations

import heapq
import itertools
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.faults import CrashFault
from repro.pfs import GpfsFileSystem, HsmState
from repro.recovery.journal import JobJournal
from repro.sim import AllOf, Environment, Event, Process, SimulationError, Store
from repro.tsm import StoredObject, TsmServer

__all__ = ["HsmManager", "RecallRequest"]


@dataclass
class RecallRequest:
    """One queued file recall."""

    path: str
    object_id: int
    volume: str
    seq: int
    nbytes: int
    done: Event = field(repr=False, default=None)  # type: ignore[assignment]


class HsmManager:
    """Connects one GPFS file system to one TSM server.

    Parameters
    ----------
    env, fs, tsm:
        The environment and the two COTS halves.
    nodes:
        Cluster nodes that run HSM daemons (the FTA cluster).
    filespace:
        TSM filespace name for this file system.
    recall_routing:
        ``"naive"`` or ``"sticky"`` (see module docstring).
    aggregate_threshold:
        Files smaller than this are bundled into aggregates during
        migration when ``aggregate=True`` (0 disables).
    journal:
        Optional :class:`~repro.recovery.journal.JobJournal`; every
        migration batch takes a lease before storing to tape so a crash
        between the TSM store and the stub punch leaves a dangling lease
        naming exactly the paths whose objects may need adoption.
    """

    def __init__(
        self,
        env: Environment,
        fs: GpfsFileSystem,
        tsm: TsmServer,
        nodes: Sequence[str],
        filespace: str = "archive",
        recall_routing: str = "naive",
        aggregate_threshold: int = 256 * 1024 * 1024,
        journal: Optional[JobJournal] = None,
    ) -> None:
        if not nodes:
            raise SimulationError("HSM needs at least one daemon node")
        if recall_routing not in ("naive", "sticky"):
            raise SimulationError(f"unknown recall routing {recall_routing!r}")
        self.env = env
        self.fs = fs
        self.tsm = tsm
        self.nodes = list(nodes)
        self.filespace = filespace
        self.recall_routing = recall_routing
        self.aggregate_threshold = aggregate_threshold
        self.sessions = {n: tsm.open_session(n, lan_free=True) for n in self.nodes}
        self._rr = itertools.count(0)
        #: per-node recall queues + daemons
        self._queues: dict[str, Store] = {}
        for n in self.nodes:
            q = Store(env)
            self._queues[n] = q
            env.process(self._recall_daemon(n, q), name=f"hsm-recalld-{n}",
                        daemon=True)
        # stats
        self.files_migrated = 0
        self.bytes_migrated = 0.0
        self.files_recalled = 0
        self.bytes_recalled = 0.0
        env.metrics.add("hsm.files_migrated", lambda: self.files_migrated)
        env.metrics.add("hsm.files_recalled", lambda: self.files_recalled)
        #: durable lease log (see class docstring)
        self.journal = journal if journal is not None else JobJournal(env)
        #: in-flight migration processes, for crash injection
        self._active_migrations: list[Process] = []
        # register as the FS's DMAPI recall handler
        fs.recall_handler = self._dmapi_recall

    # ------------------------------------------------------------------
    # crash model
    # ------------------------------------------------------------------
    def crash(self, cause=None) -> None:
        """Kill every in-flight migration batch (the migrator host dies).

        The TSM server keeps running: stores already submitted complete
        *server-side*, producing tape objects whose receipts were never
        applied — the exact orphan inconsistency the dangling lease lets
        recovery adopt.  Recall daemons stay up (the node is modelled as
        losing only its migration work).
        """
        if not isinstance(cause, BaseException):
            cause = CrashFault(f"hsm migrator crashed at t={self.env.now:.1f}")
        for proc in self._active_migrations:
            proc.kill(cause)
        self._active_migrations = []

    # ------------------------------------------------------------------
    # migration
    # ------------------------------------------------------------------
    def migrate(
        self,
        node: str,
        paths: Sequence[str],
        aggregate: bool = False,
        punch: bool = True,
        collocation_group: Optional[str] = None,
    ) -> Event:
        """Migrate *paths* from *node* to tape; fires with receipts.

        One file = one TSM transaction unless *aggregate* bundles the
        small ones.  With ``punch=False`` files end up PREMIGRATED
        (data on both tiers) instead of stubs.
        """
        if node not in self.sessions:
            raise SimulationError(f"{node!r} runs no HSM daemon")
        done = self.env.event()
        paths = list(paths)

        def _proc():
            items: list[tuple[str, int]] = []
            for p in paths:
                inode = self.fs.lookup(p)
                if not inode.is_file:
                    raise SimulationError(f"cannot migrate non-file {p!r}")
                if inode.is_stub:
                    continue  # already migrated
                items.append((p, inode.size))
            if not items:
                done.succeed([])
                return
            session = self.sessions[node]
            group = collocation_group or self.filespace
            tr = self.env.trace
            span = tr.begin(
                "hsm:migrate", tid=node, cat="hsm",
                args={"files": len(items),
                      "nbytes": int(sum(n for _, n in items))},
            ) if tr.enabled else None

            small = [(p, n) for p, n in items if aggregate and n < self.aggregate_threshold]
            large = [(p, n) for p, n in items if not aggregate or n >= self.aggregate_threshold]

            # Lease BEFORE the first store: from here until lease_done the
            # journal names every path whose tape object may lack receipts.
            lease_id = self.journal.migration_lease(
                node, [p for p, _ in items], punch
            )
            # GPFS-side reads race the tape writes on the fabric (pipeline).
            read_side = self.env.process(
                self._read_side(node, [p for p, _ in items]),
                name=f"hsm-readside-{node}",
            )
            receipts: list[StoredObject] = []
            if large:
                got = yield session.store_many(self.filespace, large, group)
                receipts.extend(got)
            if small:
                got = yield session.store_aggregate(self.filespace, small, group)
                receipts.extend(got)
            yield read_side
            for r in receipts:
                self.fs.mark_premigrated(r.path, r.object_id)
                if punch:
                    self.fs.punch_stub(r.path)
                self.files_migrated += 1
                self.bytes_migrated += r.nbytes
            self.journal.migration_done(lease_id)
            if span is not None:
                span.end()
            done.succeed(receipts)

        proc = self.env.process(_proc(), name=f"hsm-migrate-{node}")
        self._active_migrations = [
            p for p in self._active_migrations if p.is_alive
        ]
        self._active_migrations.append(proc)
        return done

    def _read_side(self, node: str, paths: list[str]):
        """Stream each file off GPFS disk to the migrating node."""
        for p in paths:
            yield self.fs.read_file(node, p)

    def punch_until(
        self, pool: str, target_occupancy: float
    ) -> list[str]:
        """Instant space recovery under pool pressure.

        PREMIGRATED files already have a safe tape copy, so punching
        them to stubs frees disk immediately without any data movement —
        the reason HSM sites keep a premigrated buffer.  Punches
        least-recently-accessed first until the pool occupancy is at or
        below *target_occupancy*; returns the punched paths.
        """
        pool_obj = self.fs.pool(pool)
        candidates = sorted(
            (
                (inode.atime, path, inode)
                for path, inode in self.fs.namespace.iter_inodes()
                if inode.is_file
                and inode.pool == pool
                and inode.hsm_state is HsmState.PREMIGRATED
            ),
        )
        punched = []
        for _, path, inode in candidates:
            if pool_obj.occupancy <= target_occupancy:
                break
            self.fs.punch_stub(path)
            punched.append(path)
        return punched

    # ------------------------------------------------------------------
    # recall
    # ------------------------------------------------------------------
    def _route_node(self, volume: str) -> str:
        if self.recall_routing == "sticky":
            # crc32, not hash(): str hashes change with the interpreter's
            # hash seed, and so would every routing decision
            return self.nodes[zlib.crc32(volume.encode()) % len(self.nodes)]
        return self.nodes[next(self._rr) % len(self.nodes)]

    def recall(self, path: str) -> Event:
        """Queue a recall for *path*; fires when data is back on disk."""
        inode = self.fs.lookup(path)
        if inode.hsm_state is not HsmState.MIGRATED:
            ev = self.env.event()
            ev.succeed(inode)  # nothing to do
            return ev
        if inode.tsm_object_id is None:
            raise SimulationError(f"stub {path!r} has no TSM object id")
        obj = self.tsm.locate(inode.tsm_object_id)
        if obj is None:
            raise SimulationError(f"TSM lost object {inode.tsm_object_id} ({path!r})")
        done = self.env.event()
        req = RecallRequest(path, obj.object_id, obj.volume, obj.seq, obj.nbytes, done)
        node = self._route_node(obj.volume)
        self._queues[node].put(req)
        return done

    def recall_many(
        self,
        paths: Sequence[str],
        tape_order: bool = False,
        tapedb=None,
    ) -> Event:
        """Recall several files; fires when all are resident.

        With *tape_order*, requests are enqueued in global (volume, seq)
        order — a k-way merge of per-volume sorted runs, the same
        arrangement PFTool's TapeCQ uses (§4.1.2) — so each daemon
        drains its tape sequentially instead of seeking.  *tapedb* (a
        :class:`~repro.tapedb.TapeIndexDB` or
        :class:`~repro.tapedb.ShardedTapeIndex`) serves the location
        lookups through its hot-entry cache; stubs the index does not
        know yet (export staleness) fall back to TSM's own catalog, and
        non-migrated files sort first (they complete instantly anyway).
        """
        if not tape_order:
            events = [self.recall(p) for p in paths]
            return AllOf(self.env, events)
        runs: dict[str, list[tuple[int, int, str]]] = {}
        for k, p in enumerate(paths):
            inode = self.fs.lookup(p)
            vol, seq = "", 0
            if (
                inode.hsm_state is HsmState.MIGRATED
                and inode.tsm_object_id is not None
            ):
                loc = (
                    tapedb.object_for_path(self.filespace, p)
                    if tapedb is not None
                    else None
                )
                if loc is not None and loc.object_id == inode.tsm_object_id:
                    vol, seq = loc.volume, loc.seq
                else:
                    obj = self.tsm.locate(inode.tsm_object_id)
                    if obj is not None:
                        vol, seq = obj.volume, obj.seq
            runs.setdefault(vol, []).append((seq, k, p))
        merged = heapq.merge(
            *(
                [(vol, seq, k, p) for seq, k, p in sorted(run)]
                for vol, run in sorted(runs.items())
            )
        )
        events = [self.recall(p) for _, _, _, p in merged]
        return AllOf(self.env, events)

    def _dmapi_recall(self, path: str, inode, client: str) -> Event:
        """FS read of a stub lands here (DMAPI read event)."""
        return self.recall(path)

    def _recall_daemon(self, node: str, queue: Store):
        session = self.sessions[node]
        while True:
            req: RecallRequest = yield queue.get()
            tr = self.env.trace
            span = tr.begin(
                "hsm:recall", tid=node, cat="hsm",
                args={"path": req.path, "volume": req.volume,
                      "seq": req.seq, "nbytes": req.nbytes},
            ) if tr.enabled else None
            try:
                yield self.tsm.retrieve_objects(session, [req.object_id])
                self.fs.restore_data(req.path)
                # Write the recalled data back to GPFS disk.
                inode = self.fs.lookup(req.path)
                self.files_recalled += 1
                self.bytes_recalled += req.nbytes
                if span is not None:
                    span.end()
                req.done.succeed(inode)
            except Exception as exc:  # surface to the waiter, keep daemon up
                if not req.done.triggered:
                    req.done.fail(exc)

    # ------------------------------------------------------------------
    @property
    def queue_depths(self) -> dict[str, int]:
        return {n: len(q.items) for n, q in self._queues.items()}

    def __repr__(self) -> str:
        return (
            f"<HsmManager nodes={len(self.nodes)} routing={self.recall_routing} "
            f"migrated={self.files_migrated} recalled={self.files_recalled}>"
        )
