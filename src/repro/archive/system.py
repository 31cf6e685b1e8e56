"""End-to-end construction of the COTS Parallel Archive System.

Matches the deployment in §4.3.1 / Figure 7:

* scratch parallel file system (Panasas-class) reached over a trunk of
  two 10GigE links;
* ten FTA nodes running PFTool (mount both file systems; FC4 HBAs);
* archive GPFS: 100 TB fast FC pool across five NSD servers + a slow
  pool for small files, ILM placement rules;
* 24 LTO-4 drives, LAN-free TSM, one TSM server;
* tape index DB (the MySQL export) + periodic exporter;
* ArchiveFUSE, trashcan, synchronous deleter, chroot jail, LoadManager.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.archive.chroot import CommandPolicy
from repro.archive.deleter import SynchronousDeleter, Trashcan
from repro.archive.migrator import BalancedMigrator
from repro.disksim import DiskArray
from repro.faults import FaultInjector, FaultPlan
from repro.fusefs import ArchiveFuseFS
from repro.hsm import HsmManager
from repro.netsim.topology import ArchiveSiteTopology, build_archive_site
from repro.pfs import (
    GpfsFileSystem,
    ListRule,
    PlacementRule,
    StoragePool,
)
from repro.pftool import (
    LoadManager,
    PftoolConfig,
    PftoolJob,
    RuntimeContext,
    pfcm,
    pfcp,
    pfdu,
    pfls,
)
from repro.recovery.agent import RecoveryAgent
from repro.recovery.journal import JobJournal
from repro.sim import Environment, Event
from repro.tapedb import ShardedTapeIndex, TapeIndexDB, TsmDbExporter
from repro.tapesim import TapeLibrary, TapeSpec
from repro.tsm import TsmServer

__all__ = ["ArchiveParams", "ParallelArchiveSystem"]

TB = 1_000_000_000_000
GB = 1_000_000_000
MB = 1_000_000


@dataclass
class ArchiveParams:
    """Sizing knobs; defaults reproduce the paper's site."""

    n_fta: int = 10
    n_disk_servers: int = 5
    n_tape_drives: int = 24
    trunk_links: int = 2
    fast_pool_tb: float = 100.0
    slow_pool_tb: float = 20.0
    scratch_pb: float = 2.0
    scratch_bw: float = 10_000 * MB
    fast_array_bw: float = 800 * MB
    slow_array_bw: float = 300 * MB
    tape_spec: TapeSpec = field(default_factory=TapeSpec)
    n_scratch_tapes: int = 500
    recall_routing: str = "naive"
    handoff_penalty: bool = True
    #: files below this placed on the slow pool (§4.2.1)
    small_file_cutoff: int = 1 * MB
    metadata_op_time: float = 0.0005
    tsm_txn_time: float = 0.005
    filespace: str = "archive"
    #: tape-index shards (>1 = ShardedTapeIndex behind a token-range
    #: router; 1 = the paper's monolithic export).  Sharding is
    #: result-transparent — recall order and lookup answers are
    #: byte-identical either way (proven by the shard property suite) —
    #: so the default exercises the scaled metadata plane everywhere.
    tapedb_shards: int = 4
    #: hot-entry LRU in front of the shards (0 disables)
    tapedb_cache_entries: int = 4096


class ParallelArchiveSystem:
    """Everything Figure 7 shows, wired and ready to run jobs.

    *monitor* is an optional
    :class:`repro.analysis.monitor.InvariantMonitor`; when given, every
    PFTool job launched through this site runs under message/work
    conservation and queue-ownership checking.
    """

    def __init__(
        self,
        env: Environment,
        params: Optional[ArchiveParams] = None,
        monitor=None,
        journal: Optional[JobJournal] = None,
    ):
        self.env = env
        self.params = p = params or ArchiveParams()
        self.monitor = monitor
        #: site-wide intent journal: two-phase delete intents and HSM
        #: migration leases land here; per-job copy journals are separate
        #: (pass ``journal=`` to :meth:`archive` / :meth:`retrieve`).
        self.journal = journal if journal is not None else JobJournal(env)

        # -- fabric --------------------------------------------------------
        self.topology: ArchiveSiteTopology = build_archive_site(
            env,
            n_fta=p.n_fta,
            n_disk_servers=p.n_disk_servers,
            n_tape_drives=p.n_tape_drives,
            trunk_links=p.trunk_links,
            scratch_bw=p.scratch_bw,
        )
        fabric = self.topology.fabric

        # -- scratch file system (Panasas-class, outside the archive) ------
        self.scratch_fs = GpfsFileSystem(
            env, "scratch-panfs", fabric=fabric,
            metadata_op_time=p.metadata_op_time,
        )
        scratch_arrays = [
            DiskArray(
                env, "scratch-shelf", capacity_bytes=p.scratch_pb * 1000 * TB,
                bandwidth=p.scratch_bw, seek_time=0.002,
            )
        ]
        self.scratch_fs.add_pool(
            StoragePool("scratch", scratch_arrays, server_nodes=["scratch"]),
            default=True,
        )

        # -- archive GPFS ----------------------------------------------------
        self.archive_fs = GpfsFileSystem(
            env, "archive-gpfs", fabric=fabric,
            metadata_op_time=p.metadata_op_time,
        )
        per_server = p.fast_pool_tb * TB / p.n_disk_servers
        fast_arrays = [
            DiskArray(
                env, f"fast-{i}", capacity_bytes=per_server,
                bandwidth=p.fast_array_bw, seek_time=0.004,
            )
            for i in range(p.n_disk_servers)
        ]
        self.archive_fs.add_pool(
            StoragePool("fast", fast_arrays,
                        server_nodes=list(self.topology.disk_servers)),
            default=True,
        )
        slow_arrays = [
            DiskArray(
                env, "slow-0", capacity_bytes=p.slow_pool_tb * TB,
                bandwidth=p.slow_array_bw, seek_time=0.008,
            )
        ]
        self.archive_fs.add_pool(
            StoragePool("slow", slow_arrays,
                        server_nodes=[self.topology.disk_servers[0]])
        )
        self.archive_fs.policy.add_placement(
            PlacementRule(
                "small-files-to-slow-pool",
                "slow",
                lambda path, inode, now: 0 < inode.size < p.small_file_cutoff,
            )
        )
        self.archive_fs.policy.default_pool = "fast"

        # -- tape back end -----------------------------------------------------
        self.library = TapeLibrary(
            env,
            n_drives=p.n_tape_drives,
            fabric=fabric,
            drive_ports=list(self.topology.tape_drive_ports),
            spec=p.tape_spec,
            n_scratch=p.n_scratch_tapes,
            handoff_penalty=p.handoff_penalty,
        )
        self.tsm = TsmServer(
            env, self.library, server_node=self.topology.tsm_server,
            txn_time=p.tsm_txn_time,
        )
        self.hsm = HsmManager(
            env, self.archive_fs, self.tsm,
            nodes=list(self.topology.fta_nodes),
            filespace=p.filespace,
            recall_routing=p.recall_routing,
            journal=self.journal,
        )
        if p.tapedb_shards > 1:
            self.tapedb = ShardedTapeIndex(
                env,
                n_shards=p.tapedb_shards,
                cache_entries=p.tapedb_cache_entries,
            )
        else:
            self.tapedb = TapeIndexDB(env)
        self.exporter = TsmDbExporter(env, self.tsm, self.tapedb)

        # -- glue -------------------------------------------------------------
        self.fuse = ArchiveFuseFS(self.archive_fs)
        self.trashcan = Trashcan(self.archive_fs)
        self.deleter = SynchronousDeleter(
            env, self.archive_fs, self.tsm, self.tapedb, p.filespace,
            journal=self.journal, trashcan=self.trashcan,
        )
        self.migrator = BalancedMigrator(env, self.hsm)
        self.recovery_agent = RecoveryAgent(
            env, self.journal, self.archive_fs, self.tsm,
            tapedb=self.tapedb, trashcan=self.trashcan,
            filespace=p.filespace,
        )
        self.loadmanager = LoadManager(env, list(self.topology.fta_nodes))
        self.jail = CommandPolicy()
        #: armed by :meth:`inject_faults`; jobs consult it for message
        #: delivery through node-outage windows
        self.fault_injector: Optional[FaultInjector] = None

        # overwrite of migrated data: FUSE-intercepted chunks are renamed
        # to the trashcan elsewhere; plain-file overwrites are recorded so
        # the sweep can sync-delete the stale object (no reconcile needed).
        self.overwrite_orphans: list[int] = []
        self.archive_fs.on_overwrite.append(
            lambda path, inode, stale: (
                self.overwrite_orphans.append(stale) if stale is not None else None
            )
        )

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def inject_faults(self, plan: FaultPlan, health=None) -> FaultInjector:
        """Arm *plan* against this site's library, TSM server, tape
        index and both file systems; returns the armed
        :class:`FaultInjector` (its ``injected`` dict reports what
        actually fired).  *health* is an optional
        :class:`~repro.health.HealthView` that gets every recorded fault
        as an ``on_fault`` observation.  The injector is remembered on
        the site so jobs launched afterwards route their rank messaging
        through its node-outage windows."""
        self.fault_injector = FaultInjector(
            self.env,
            plan,
            library=self.library,
            tsm=self.tsm,
            filesystems=(self.archive_fs, self.scratch_fs),
            tapedb=self.tapedb,
            health=health,
        ).arm()
        return self.fault_injector

    # ------------------------------------------------------------------
    # PFTool entry points (jail-approved commands)
    # ------------------------------------------------------------------
    def _ctx(self, direction: str) -> RuntimeContext:
        nodes = self.loadmanager.machine_list()
        if direction == "in":  # scratch -> archive
            return RuntimeContext(
                src_fs=self.scratch_fs,
                dst_fs=self.archive_fs,
                nodes=nodes,
                fuse=self.fuse,
                hsm=self.hsm,
                tsm=self.tsm,
                tapedb=self.tapedb,
                filespace=self.params.filespace,
                monitor=self.monitor,
                fault_injector=self.fault_injector,
            )
        return RuntimeContext(
            src_fs=self.archive_fs,
            dst_fs=self.scratch_fs,
            nodes=nodes,
            fuse=self.fuse,
            hsm=self.hsm,
            tsm=self.tsm,
            tapedb=self.tapedb,
            filespace=self.params.filespace,
            monitor=self.monitor,
            fault_injector=self.fault_injector,
        )

    def archive(
        self, src: str, dst: str, cfg: Optional[PftoolConfig] = None,
        journal: Optional[JobJournal] = None,
    ) -> PftoolJob:
        """``pfcp`` scratch -> archive."""
        return pfcp(self.env, self._ctx("in"), src, dst, cfg, journal=journal)

    def retrieve(
        self, src: str, dst: str, cfg: Optional[PftoolConfig] = None,
        journal: Optional[JobJournal] = None,
    ) -> PftoolJob:
        """``pfcp`` archive -> scratch (tape-aware ordered recall)."""
        return pfcp(self.env, self._ctx("out"), src, dst, cfg, journal=journal)

    def resume_job(
        self, journal: JobJournal, cfg: Optional[PftoolConfig] = None
    ) -> PftoolJob:
        """Restart a crashed ``pfcp`` from its journal.

        Direction is recovered from the journal's job-open record; the
        resumed job dedupes every chunk/file the journal already names.
        """
        meta = journal.job_meta
        if meta is None:
            raise ValueError("journal has no job-open record to resume from")
        direction = "in" if meta.get("src_fs") == self.scratch_fs.name else "out"
        return PftoolJob.resume(self.env, self._ctx(direction), journal, cfg)

    def recover(self) -> Event:
        """Post-crash recovery over the site journal: replay dangling
        two-phase delete intents and adopt orphaned migration leases.
        Fires with a :class:`~repro.recovery.agent.RecoveryReport`."""
        return self.recovery_agent.recover()

    def list_archive(self, path: str, cfg: Optional[PftoolConfig] = None) -> PftoolJob:
        """``pfls`` over the archive namespace."""
        return pfls(self.env, self._ctx("out"), path, cfg)

    def du(self, path: str, cfg: Optional[PftoolConfig] = None) -> PftoolJob:
        """``pfdu`` over the archive namespace (tape-safe parallel du)."""
        return pfdu(self.env, self._ctx("out"), path, cfg)

    def compare(
        self, src: str, dst: str, cfg: Optional[PftoolConfig] = None
    ) -> PftoolJob:
        """``pfcm`` scratch vs archive byte-content verification."""
        return pfcm(self.env, self._ctx("in"), src, dst, cfg)

    # ------------------------------------------------------------------
    # ILM-driven migration to tape
    # ------------------------------------------------------------------
    def migrate_to_tape(
        self,
        where=None,
        aggregate: bool = False,
        punch: bool = True,
    ) -> Event:
        """LIST-policy scan + size-balanced parallel migration (§4.2.4).

        Fires with a :class:`~repro.archive.migrator.MigrationReport`.
        *where* is an optional extra predicate over (path, inode, now).
        """
        done = self.env.event()

        def _cond(path, inode, now):
            if not inode.is_file or inode.tsm_object_id is not None:
                return False
            if path.startswith("/.trash"):
                return False  # doomed data migrates nowhere
            if "__fuse__" in inode.xattrs or inode.size == 0:
                return False  # fuse manifests / empty files carry no data
            if "__packed_in__" in inode.xattrs:
                return False  # packed members: the container carries the data
            return where is None or where(path, inode, now)

        def _proc():
            res = yield self.archive_fs.policy.apply(
                [ListRule("migration-candidates", "tape", _cond)]
            )
            hits = res.lists.get("tape", [])
            report = yield self.migrator.migrate(
                hits, aggregate=aggregate, punch=punch
            )
            yield self.exporter.run_once()  # refresh the tape index
            done.succeed(report)

        self.env.process(_proc(), name="migrate-to-tape")
        return done

    def apply_policy_text(self, text: str) -> Event:
        """Run a GPFS-style policy file against the archive (the
        ``mmapplypolicy`` workflow).

        Placement (SET POOL) rules are installed on the archive's policy
        engine; MIGRATE rules targeting the external ``'hsm'`` pool (or
        any unknown pool) have their candidates migrated to tape via the
        balanced migrator; LIST rules just return their lists.  Fires
        with ``(PolicyResult, list[MigrationReport])``.
        """
        from repro.pfs import MigrateRule, PlacementRule, parse_policy

        rules = parse_policy(text)
        done = self.env.event()
        scan_rules = []
        for rule in rules:
            if isinstance(rule, PlacementRule):
                self.archive_fs.policy.add_placement(rule)
            else:
                scan_rules.append(rule)

        def _proc():
            reports = []
            result = None
            if scan_rules:
                result = yield self.archive_fs.policy.apply(
                    scan_rules,
                    pool_occupancy=self.archive_fs.pool_occupancy,
                    pool_capacity=self.archive_fs.pool_capacity,
                )
                for rule in scan_rules:
                    if not isinstance(rule, MigrateRule):
                        continue
                    hits = result.migrations.get(rule.name, [])
                    if rule.to_pool in self.archive_fs.pools or not hits:
                        continue  # internal pool moves are out of scope
                    report = yield self.migrator.migrate(hits)
                    yield self.exporter.run_once()
                    reports.append(report)
            done.succeed((result, reports))

        self.env.process(_proc(), name="apply-policy-text")
        return done

    # ------------------------------------------------------------------
    # delete path (jail rm -> trashcan -> sweep)
    # ------------------------------------------------------------------
    def user_delete(self, path: str, user: str = "root"):
        """The jail's ``rm``: move to the trashcan (undelete-able)."""
        return self.trashcan.trash(path, user)

    def undelete(self, path: str) -> bool:
        return self.trashcan.undelete(path)

    def sweep_trash(self, min_age: float = 0.0) -> Event:
        """Sync-delete trashcan entries older than *min_age* plus any
        overwrite orphans; fires with the number of deletions."""
        done = self.env.event()

        def _proc():
            # Entries stay in the trashcan until the deleter's two-phase
            # protocol reaches DONE — popping them here would lose the
            # tsm_object_id if the deleter died between the GPFS unlink
            # and the TSM delete (the satellite-1 accounting bug).
            entries = self.trashcan.list_older_than(min_age)
            n = 0
            if entries:
                n = yield self.deleter.delete_entries(entries)
            # stale objects from plain-file overwrites — intent-bracketed
            # through the deleter so a crash mid-batch is recoverable
            orphans, self.overwrite_orphans = self.overwrite_orphans, []
            if orphans:
                n += yield self.deleter.delete_orphan_objects(orphans)
            done.succeed(n)

        self.env.process(_proc(), name="trash-sweep")
        return done

    def __repr__(self) -> str:
        return (
            f"<ParallelArchiveSystem fta={self.params.n_fta} "
            f"drives={self.params.n_tape_drives}>"
        )
