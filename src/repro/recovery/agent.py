"""Post-crash recovery: replay the journal, repair both halves.

A crash can strand two kinds of in-flight work in the site journal:

* **dangling delete intents** — the two-phase deleter died somewhere in
  ``intent -> fs_done -> done``.  Recovery finishes the protocol: if the
  file-system side is still present the unlink is replayed, then the
  tape side is reconciled with a *targeted* lookup
  (:meth:`repro.hsm.reconcile.ReconcileAgent.targeted`) — one indexed
  tape-DB query per dangling intent, never the O(all files) walk the
  paper calls unacceptable (§4.2.6).
* **dangling migration leases** — the migrator host died after
  submitting TSM stores but before applying receipts.  The stores
  completed *server-side*, so the tape objects exist but no inode knows
  about them.  Recovery adopts them: for each leased path still lacking
  a ``tsm_object_id``, a per-path TSM query finds the orphaned object
  and re-applies the receipt (premigrate + optional stub punch).  Paths
  with no object simply remigrate on the next policy run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hsm.reconcile import ReconcileAgent
from repro.pfs import GpfsFileSystem, PathError
from repro.recovery.journal import JobJournal
from repro.sim import Environment, Event
from repro.tsm import TsmServer

__all__ = ["RecoveryAgent", "RecoveryReport"]


@dataclass
class RecoveryReport:
    """Outcome of one recovery pass."""

    delete_intents_found: int = 0
    fs_unlinks_replayed: int = 0
    tsm_deletes_replayed: int = 0
    migration_leases_found: int = 0
    objects_adopted: int = 0
    #: leased paths with no tape object — they need remigration
    files_unmigrated: list = field(default_factory=list)
    targeted_lookups: int = 0
    duration: float = 0.0


class RecoveryAgent:
    """Replays dangling journal intents after a crash-restart."""

    def __init__(
        self,
        env: Environment,
        journal: JobJournal,
        fs: GpfsFileSystem,
        tsm: TsmServer,
        tapedb=None,
        trashcan=None,
        filespace: str = "archive",
    ) -> None:
        self.env = env
        self.journal = journal
        self.fs = fs
        self.tsm = tsm
        self.tapedb = tapedb
        self.trashcan = trashcan
        self.filespace = filespace
        self.reconciler = ReconcileAgent(env, fs, tsm, filespace=filespace)
        #: totals over every pass of this agent
        self.intents_replayed = 0
        self.objects_adopted = 0
        env.metrics.add("recovery.intents_replayed",
                        lambda: self.intents_replayed)
        env.metrics.add("recovery.objects_adopted", lambda: self.objects_adopted)

    def recover(self) -> Event:
        """One recovery pass; fires with a :class:`RecoveryReport`."""
        done = self.env.event()

        def _proc():
            t0 = self.env.now
            report = RecoveryReport()
            tr = self.env.trace
            span = tr.begin(
                "recovery:replay", tid="recovery", cat="recovery",
            ) if tr.enabled else None

            # -- finish half-applied two-phase deletes -----------------
            for intent in self.journal.dangling_deletes():
                report.delete_intents_found += 1
                if intent.state == "intent" and intent.trash_path:
                    # phase 1 may or may not have landed; replay is safe
                    # because unlink of a missing path is a no-op here
                    if self.fs.exists(intent.trash_path):
                        try:
                            yield self.fs.unlink_op(intent.trash_path)
                            report.fs_unlinks_replayed += 1
                        except PathError:
                            pass
                self.journal.delete_fs_done(intent.intent_id)
                # phase 2: targeted tape-side reconcile for this file only
                rep = yield self.reconciler.targeted(
                    [(intent.original_path, intent.tsm_object_id)],
                    tapedb=self.tapedb,
                )
                report.targeted_lookups += rep.tsm_objects_checked
                report.tsm_deletes_replayed += rep.orphans_deleted
                self.journal.delete_done(intent.intent_id)
                if self.trashcan is not None and intent.trash_path:
                    self.trashcan.pop(intent.trash_path)

            # -- adopt orphaned migration batches ----------------------
            for lease in self.journal.dangling_leases():
                report.migration_leases_found += 1
                for path in lease.paths:
                    try:
                        inode = self.fs.lookup(path)
                    except PathError:
                        continue  # deleted since the lease; nothing owed
                    if inode.tsm_object_id is not None:
                        continue  # receipt was applied before the crash
                    yield self.env.timeout(self.reconciler.per_query_cost)
                    report.targeted_lookups += 1
                    objs = self.tsm.objects_for_path(self.filespace, path)
                    if objs:
                        # store completed server-side: adopt the object
                        obj = objs[-1]
                        self.fs.mark_premigrated(path, obj.object_id)
                        if lease.punch:
                            self.fs.punch_stub(path)
                        report.objects_adopted += 1
                    else:
                        report.files_unmigrated.append(path)
                self.journal.migration_done(lease.lease_id)

            report.duration = self.env.now - t0
            self.intents_replayed += report.delete_intents_found
            self.objects_adopted += report.objects_adopted
            if span is not None:
                span.end()
            done.succeed(report)

        self.env.process(_proc(), name="recovery-agent")
        return done
