"""Tests for ``repro.scheduler``: the archive-as-a-service layer.

Covers the scheduler pieces in isolation (tenant queues, stride
fair-share, admission control), the service end-to-end against a small
simulated site (submit / cancel / preempt / resume, trace emission),
and the long-running-service bugfixes that ride along:

* LoadManager strict unknown-node accounting,
* PftoolJob rejecting a stale (already-used) journal,
* InvariantMonitor detaching on job completion (no growth across a
  service's job stream),
* finished jobs releasing their mailboxes, rank processes and Manager
  (live engine objects do not grow with the number of jobs run).
"""

import gc

import pytest

from repro.analysis.monitor import InvariantMonitor, set_default_monitor_factory
from repro.pftool import PftoolConfig
from repro.pftool.loadmanager import LoadManager
from repro.pftool.manager import Manager
from repro.recovery.journal import JobJournal
from repro.scheduler import (
    ACTIVE,
    CANCELLED,
    COMPLETED,
    PREEMPTED,
    QUEUED,
    AdmissionController,
    AdmissionPolicy,
    ArchiveService,
    FairShare,
    JobTicket,
    SchedulerConfig,
    TenantQueue,
)
from repro.scheduler.scenario import build_site
from repro.sim import Environment, FilterStore, Process, SimulationError
from repro.trace import Tracer, tracing
from repro.trace.assertions import TraceAssertions
from repro.workloads.generators import preload_tree

MB = 1_000_000


def small_cfg(**over):
    kw = dict(num_workers=2, num_readdir=1, num_tapeprocs=0,
              stat_batch=8, copy_batch=4)
    kw.update(over)
    return PftoolConfig(**kw)  # 6 ranks with the defaults above


def make_service(env, tenants=(("alice", 1.0), ("bob", 2.0)), **policy_over):
    system = build_site(env)
    policy = AdmissionPolicy(**{"slots_per_node": 12, "max_active_jobs": 8,
                                **policy_over})
    service = ArchiveService(
        system, SchedulerConfig(policy=policy, default_cfg=small_cfg())
    )
    for name, weight in tenants:
        service.add_tenant(name, weight=weight)
    return system, service


def submit_with_tree(service, tenant, name, n_files=2, size=4 * MB, **kw):
    src = f"/jobs/{tenant}/{name}"
    preload_tree(service.system.scratch_fs, src, [size] * n_files)
    return service.submit(tenant, "archive", src, f"/arc/{tenant}/{name}", **kw)


def ticket_for(tenant, op="retrieve", workers=2, tapeprocs=2):
    """A bare ticket for admission-unit tests (never dispatched)."""
    return JobTicket(
        job_id=999, tenant=tenant, op=op, src="/s", dst="/d",
        cfg=small_cfg(num_workers=workers, num_tapeprocs=tapeprocs),
    )


# ---------------------------------------------------------------------------
# TenantQueue
# ---------------------------------------------------------------------------

def _tq_ticket(job_id, priority=0):
    return JobTicket(job_id=job_id, tenant="t", op="archive", src="/s",
                     dst="/d", cfg=small_cfg(), priority=priority)


def test_tenant_queue_priority_then_fifo():
    q = TenantQueue("t")
    for job_id, prio in [(1, 0), (2, 5), (3, 0), (4, 5)]:
        q.push(_tq_ticket(job_id, prio))
    assert [q.pop().job_id for _ in range(4)] == [2, 4, 1, 3]
    assert q.pop() is None and q.peek() is None


def test_tenant_queue_tombstone_remove():
    q = TenantQueue("t")
    for job_id in (1, 2, 3):
        q.push(_tq_ticket(job_id))
    assert q.remove(2) and len(q) == 2
    assert not q.remove(2)  # already gone
    assert not q.remove(99)  # never present
    assert q.peek().job_id == 1
    assert [q.pop().job_id, q.pop().job_id] == [1, 3]


def test_tenant_queue_remove_head_compacts_on_peek():
    q = TenantQueue("t")
    q.push(_tq_ticket(1, priority=9))
    q.push(_tq_ticket(2))
    assert q.remove(1)
    assert q.peek().job_id == 2


# ---------------------------------------------------------------------------
# FairShare
# ---------------------------------------------------------------------------

def test_fairshare_proportional_pick_order():
    fs = FairShare()
    fs.add_tenant("a", 1.0)
    fs.add_tenant("b", 2.0)
    picks = []
    for _ in range(9):
        t = fs.pick(["a", "b"])
        picks.append(t)
        fs.charge(t, 1.0)
    # 2:1 service ratio, to within one dispatch
    assert abs(picks.count("b") - 2 * picks.count("a")) <= 1
    assert fs.deviation(["a", "b"]) <= 1.0 / 9 + 1e-12


def test_fairshare_idle_tenant_does_not_bank_credit():
    fs = FairShare()
    fs.add_tenant("busy", 1.0)
    fs.add_tenant("idle", 1.0)
    for _ in range(50):
        fs.charge("busy", 1.0)
    fs.on_backlogged("idle")  # lag clamp: joins at the gvt, not at 0
    picks = [fs.pick(["busy", "idle"]) for _ in range(2)]
    for t in picks:
        fs.charge(t, 1.0)
    # without the clamp "idle" would win the next 50 picks straight
    assert picks.count("idle") <= 1


def test_fairshare_validation():
    fs = FairShare()
    with pytest.raises(SimulationError):
        fs.add_tenant("t", weight=0)
    fs.add_tenant("t", 1.0)
    with pytest.raises(SimulationError):
        fs.add_tenant("t", 1.0)
    assert fs.deviation([]) == 0.0
    assert fs.deviation(["t"]) == 0.0  # nothing dispatched yet


# ---------------------------------------------------------------------------
# AdmissionController
# ---------------------------------------------------------------------------

def test_admission_reasons_and_accounting():
    env = Environment()
    lm = LoadManager(env, ["fta0", "fta1"])
    ctl = AdmissionController(lm, AdmissionPolicy(slots_per_node=4,
                                                  max_active_jobs=1),
                              n_drives=4)
    t = ticket_for("x", op="archive", tapeprocs=0)
    t.nodes_used = ["fta0"] * 6
    assert ctl.admits(t) == (True, "")
    ctl.on_dispatch(t)
    assert ctl.admits(t) == (False, "max-active-jobs")
    ctl.on_complete(t)
    assert ctl.admits(t) == (True, "")
    assert lm.total_load == 0


def test_admission_fta_load_reason():
    env = Environment()
    lm = LoadManager(env, ["fta0"])
    ctl = AdmissionController(lm, AdmissionPolicy(slots_per_node=8,
                                                  max_active_jobs=8),
                              n_drives=0)
    t = ticket_for("x", op="archive", tapeprocs=0)  # 6 ranks
    t.nodes_used = ["fta0"] * 6
    ctl.on_dispatch(t)  # 6 of 8 slots gone
    assert ctl.admits(t) == (False, "fta-load")


def test_admission_drive_reservation():
    env = Environment()
    lm = LoadManager(env, ["fta0", "fta1", "fta2"])
    ctl = AdmissionController(lm, AdmissionPolicy(slots_per_node=8,
                                                  drive_reserve=1),
                              n_drives=4)
    t = ticket_for("x", op="retrieve", tapeprocs=2)
    t.nodes_used = ["fta0"] * t.ranks
    assert ctl.admits(t) == (True, "")
    ctl.on_dispatch(t)  # 2 of 3 usable drives reserved
    assert ctl.admits(t) == (False, "drives")
    # archive-direction jobs don't touch drives
    t_in = ticket_for("x", op="archive", tapeprocs=2)
    t_in.nodes_used = ["fta1"] * t_in.ranks
    assert ctl.admits(t_in) == (True, "")


def test_admission_validate_rejects_impossible_jobs():
    env = Environment()
    lm = LoadManager(env, ["fta0"])
    ctl = AdmissionController(lm, AdmissionPolicy(slots_per_node=4),
                              n_drives=1)
    with pytest.raises(SimulationError, match="rank-slots"):
        ctl.validate(ticket_for("x", op="archive", workers=8, tapeprocs=0))
    roomy = AdmissionController(lm, AdmissionPolicy(slots_per_node=32),
                                n_drives=1)
    with pytest.raises(SimulationError, match="tape drives"):
        roomy.validate(ticket_for("x", op="retrieve", workers=1, tapeprocs=2))


# ---------------------------------------------------------------------------
# satellite bugfix: LoadManager strict unknown-node accounting
# ---------------------------------------------------------------------------

def test_loadmanager_rejects_unknown_nodes():
    env = Environment()
    lm = LoadManager(env, ["fta0", "fta1"])
    with pytest.raises(SimulationError, match="unknown node"):
        lm.job_started(["fta0", "ghost"])
    # the failed call must not have half-applied its accounting
    assert lm.load_of("fta0") == 0
    with pytest.raises(SimulationError, match="unknown node"):
        lm.job_finished(["ghost"])
    with pytest.raises(SimulationError, match="never told"):
        lm.load_of("ghost")


def test_loadmanager_register_grows_pool():
    env = Environment()
    lm = LoadManager(env, ["fta0"])
    lm.register("fta1")
    lm.register("fta1")  # idempotent
    lm.job_started(["fta1", "fta1"])
    assert lm.load_of("fta1") == 2
    assert lm.machine_list() == ["fta0", "fta1"]
    assert lm.free_slots(4) == 4 + 2


# ---------------------------------------------------------------------------
# satellite bugfix: stale journals are rejected
# ---------------------------------------------------------------------------

def test_used_journal_rejected_unless_resuming():
    env = Environment()
    system = build_site(env)
    preload_tree(system.scratch_fs, "/jobs/a", [4 * MB])
    journal = JobJournal(env)
    job = system.archive("/jobs/a", "/arc/a", small_cfg(), journal=journal)
    env.run(job.done)
    # the journal now belongs to the finished job: handing it to a new
    # submission would silently inherit the old frontier and skip files
    preload_tree(system.scratch_fs, "/jobs/b", [4 * MB])
    with pytest.raises(SimulationError, match="already belongs"):
        system.archive("/jobs/b", "/arc/b", small_cfg(), journal=journal)
    # the resume path stays open (cfg.restart=True)
    resumed = system.resume_job(journal, small_cfg())
    stats = env.run(resumed.done)
    assert stats.files_copied == 0  # everything deduped from the journal


# ---------------------------------------------------------------------------
# satellite bugfix: monitor detaches on completion (no growth)
# ---------------------------------------------------------------------------

def test_monitor_does_not_grow_over_job_stream():
    mon = InvariantMonitor(strict=True)
    set_default_monitor_factory(lambda: mon)
    env = Environment()
    _system, service = make_service(env)
    for k in range(4):
        ticket = submit_with_tree(service, "alice", f"j{k}", n_files=1)
        env.run(ticket.done)
        assert mon.attached_jobs == 0, (
            f"monitor still holds {mon.attached_jobs} job(s) after job {k}"
        )
        assert ticket.job.comm.monitor is None
    assert mon.violations == []


# ---------------------------------------------------------------------------
# finished jobs release their engine state
# ---------------------------------------------------------------------------

def _live_engine_objects(n_jobs):
    """Run *n_jobs* small archive jobs through a service, drain it, and
    count the per-job engine objects the garbage collector still finds."""
    env = Environment()
    system, service = make_service(env)
    tickets = [submit_with_tree(service, "alice" if k % 2 else "bob",
                                f"j{k}", n_files=2, size=MB)
               for k in range(n_jobs)]
    env.run(service.drain())
    env.run()
    assert all(t.state == COMPLETED for t in tickets)
    assert all(t.job.stats.files_copied == 2 for t in tickets)
    gc.collect()
    counts = {"FilterStore": 0, "Manager": 0, "rank Process": 0}
    for obj in gc.get_objects():
        if not isinstance(obj, (FilterStore, Manager, Process)) or obj.env is not env:
            continue  # another test's leftovers are not this site's
        if isinstance(obj, FilterStore):
            counts["FilterStore"] += 1
        elif isinstance(obj, Manager):
            counts["Manager"] += 1
        elif obj.name.startswith("pftool-"):
            counts["rank Process"] += 1
    # keep the site alive until the count is taken: its own FilterStores
    # (the tape library's drive pool) are part of the baseline
    assert system is not None
    return counts


def test_finished_jobs_release_mailboxes_ranks_and_manager():
    small, large = _live_engine_objects(6), _live_engine_objects(12)
    assert small["Manager"] == large["Manager"] == 0
    assert small["rank Process"] == large["rank Process"] == 0
    assert small["FilterStore"] == large["FilterStore"]


# ---------------------------------------------------------------------------
# ArchiveService end-to-end
# ---------------------------------------------------------------------------
# ---------------------------------------------------------------------------
# ArchiveService end-to-end
# ---------------------------------------------------------------------------

def test_service_submit_completes_and_copies_bytes():
    env = Environment()
    system, service = make_service(env)
    ticket = submit_with_tree(service, "alice", "j0", n_files=3)
    assert ticket.state in (QUEUED, ACTIVE)
    stats = env.run(ticket.done)
    assert ticket.state == COMPLETED
    assert stats.files_copied == 3
    assert system.archive_fs.exists("/arc/alice/j0/f0000")
    summary = service.summary()
    assert summary["submitted"] == summary["completed"] == 1
    assert service.in_flight == 0


def test_service_validates_submissions():
    env = Environment()
    _system, service = make_service(env)
    with pytest.raises(SimulationError, match="unknown tenant"):
        service.submit("mallory", "archive", "/s", "/d")
    with pytest.raises(SimulationError, match="unknown service op"):
        service.submit("alice", "shred", "/s", "/d")
    with pytest.raises(SimulationError, match="rank-slots"):
        service.submit("alice", "archive", "/s", "/d",
                       cfg=small_cfg(num_workers=200))
    with pytest.raises(SimulationError, match="unknown job id"):
        service.query(42)


def test_service_admission_blocks_then_drains():
    env = Environment()
    _system, service = make_service(env, max_active_jobs=1)
    first = submit_with_tree(service, "alice", "j0")
    second = submit_with_tree(service, "alice", "j1")
    assert first.state == ACTIVE
    assert second.state == QUEUED
    assert second.blocked_on == "max-active-jobs"
    env.run(service.drain())
    assert first.state == second.state == COMPLETED
    assert second.blocked_on == ""
    assert second.dispatched >= first.finished


def test_service_cancel_queued_never_dispatches():
    env = Environment()
    _system, service = make_service(env, max_active_jobs=1)
    submit_with_tree(service, "alice", "j0")
    victim = submit_with_tree(service, "alice", "j1")
    assert service.cancel(victim.job_id)
    assert victim.state == CANCELLED
    assert victim.dispatched is None and victim.stats is None
    assert not service.cancel(victim.job_id)  # already terminal
    env.run(service.drain())
    assert victim.job_id not in service.dispatch_log


def test_service_cancel_active_aborts_job():
    env = Environment()
    _system, service = make_service(env)
    ticket = submit_with_tree(service, "alice", "j0", n_files=4)
    assert ticket.state == ACTIVE
    env.run(env.timeout(0.01))
    assert service.cancel(ticket.job_id, "operator said so")
    env.run(service.drain())
    assert ticket.state == CANCELLED
    assert ticket.stats is not None and ticket.stats.aborted


def test_service_preempt_then_resume_converges():
    env = Environment()
    system, service = make_service(env)
    src = "/jobs/alice/big"
    preload_tree(system.scratch_fs, src, [8 * MB] * 6)
    ticket = submit_with_tree(service, "bob", "decoy", n_files=1)
    big = service.submit("alice", "archive", src, "/arc/alice/big")
    env.run(env.timeout(0.05))
    assert service.preempt(big.job_id)
    assert not service.preempt(big.job_id)  # already requested
    env.run(service.drain())
    assert big.state == PREEMPTED
    assert big.journal is not None and big.journal.job_meta is not None
    resumed = service.resume(big.job_id)
    assert resumed.resume_of == big.job_id
    stats = env.run(resumed.done)
    assert resumed.state == COMPLETED
    # oracle convergence: the resume walks everything, dedupes what the
    # journal says already landed, and copies only the remainder
    assert stats.files_seen == 6
    assert stats.files_copied + stats.files_skipped == 6
    assert stats.files_skipped > 0  # the preempted run's work survived
    for i in range(6):
        assert system.archive_fs.exists(f"/arc/alice/big/f{i:04d}")
    assert ticket.state == COMPLETED
    # conservation across the preempt/resume pair
    s = service.summary()
    assert s["submitted"] == s["completed"] + s["cancelled"] + s["preempted"]


def test_service_resume_requires_preempted_state():
    env = Environment()
    _system, service = make_service(env)
    ticket = submit_with_tree(service, "alice", "j0")
    env.run(ticket.done)
    with pytest.raises(SimulationError, match="only preempted"):
        service.resume(ticket.job_id)


def test_service_fair_share_across_tenants():
    env = Environment()
    _system, service = make_service(
        env, max_active_jobs=1,
        tenants=(("light", 1.0), ("heavy", 3.0)),
    )
    for k in range(4):
        submit_with_tree(service, "light", f"j{k}", n_files=1, size=1 * MB)
    for k in range(12):
        submit_with_tree(service, "heavy", f"j{k}", n_files=1, size=1 * MB)
    env.run(service.drain())
    cost = service.summary()["dispatched_cost"]
    # 3:1 weights over a fully backlogged run: heavy gets ~3x the cost
    assert cost["heavy"] == 3 * cost["light"]
    # and after the warmup half the sampled deviation stays small
    samples = service.deviation_samples
    assert max(samples[len(samples) // 2:]) <= 0.25


def test_service_emits_scheduler_trace():
    tracer = Tracer()
    with tracing(tracer):
        env = Environment()
        _system, service = make_service(env, max_active_jobs=1)
        a = submit_with_tree(service, "alice", "j0")
        b = submit_with_tree(service, "bob", "j1")
        env.run(service.drain())
    ta = TraceAssertions(tracer)
    assert len(ta.select("sched:submit", ph="i")) == 2
    assert len(ta.select("sched:dispatch", ph="i")) == 2
    assert len(ta.select("sched:complete", ph="i")) == 2
    ta.happens_before("sched:submit", "sched:dispatch", per="args:job_id")
    ta.happens_before("sched:dispatch", "sched:complete", per="args:job_id")
    # the blocked head emitted its reason exactly once
    blocked = ta.select("sched:blocked", ph="i")
    assert [ev["args"]["job_id"] for ev in blocked] == [b.job_id]
    # queue-depth counter tracks the backlog
    depths = [ev["args"]["sched:queue_depth"]
              for ev in ta.select("sched:queue_depth", ph="C")]
    assert max(depths) >= 1 and depths[-1] == 0
    assert a.state == b.state == COMPLETED


def test_service_snapshot_and_metrics():
    env = Environment()
    _system, service = make_service(env)
    ticket = submit_with_tree(service, "alice", "j0")
    env.run(ticket.done)
    snap = ticket.snapshot()
    assert snap["state"] == COMPLETED
    assert snap["wait_time"] == pytest.approx(
        ticket.dispatched - ticket.submitted)
    assert service.summary()["completed"] == 1
    assert service.summary()["active"] == 0
