"""The long-running archive service: submit / query / cancel / preempt.

``ArchiveService`` wraps a :class:`~repro.archive.system.ParallelArchiveSystem`
and turns the paper's ad-hoc "run pftool when asked" site into a
continuously-running, multi-tenant service (ROADMAP item 1; CASTOR's
stager is this layer at CERN scale):

* every tenant (user/project) gets a priority-ordered queue
  (:class:`~repro.scheduler.queues.TenantQueue`);
* dispatch order across tenants is weighted fair-share
  (:class:`~repro.scheduler.fairshare.FairShare`, stride scheduling);
* a dispatch only happens while the FTA pool and tape drives have
  headroom (:class:`~repro.scheduler.admission.AdmissionController`,
  charging the site's :class:`~repro.pftool.loadmanager.LoadManager`);
* dispatched jobs are ordinary :class:`~repro.pftool.job.PftoolJob`\\ s,
  each bound to a fresh :class:`~repro.recovery.journal.JobJournal` —
  so cancel, preempt and crash all leave a journal a resume converges
  from (the chaos harness's oracle argument carries over verbatim);
* every scheduling decision emits ``repro.trace`` events and updates
  the service's job counts (:meth:`ArchiveService.summary`).

The service is purely event-driven on the simulated clock: submissions
and job completions pump the dispatch loop; there is no polling process,
so an idle service costs zero events.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.pftool.config import PftoolConfig
from repro.recovery.journal import JobJournal
from repro.scheduler.admission import (
    AdmissionController,
    AdmissionPolicy,
    DegradedModePolicy,
)
from repro.scheduler.fairshare import FairShare
from repro.scheduler.queues import (
    ACTIVE,
    CANCELLED,
    COMPLETED,
    PREEMPTED,
    QUEUED,
    TERMINAL_STATES,
    JobTicket,
    TenantQueue,
)
from repro.sim import Event, RandomStreams, SimulationError

__all__ = ["ArchiveService", "SchedulerConfig", "Tenant"]


@dataclass(frozen=True)
class Tenant:
    """One accounting principal (user or project)."""

    name: str
    weight: float = 1.0
    project: str = ""


@dataclass
class SchedulerConfig:
    """Service-level knobs."""

    policy: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    #: PftoolConfig used when a submission does not bring its own
    default_cfg: Optional[PftoolConfig] = None


class ArchiveService:
    """Archive-as-a-service over one simulated site."""

    def __init__(self, system, config: Optional[SchedulerConfig] = None) -> None:
        self.system = system
        self.env = system.env
        self.config = config or SchedulerConfig()
        #: jobs per lifecycle step, in summary() order
        self._counts = dict.fromkeys(
            ("submitted", "dispatched", COMPLETED, CANCELLED, PREEMPTED,
             "resumed"), 0)

        self._tenants: dict[str, Tenant] = {}
        self._queues: dict[str, TenantQueue] = {}
        self._fair = FairShare()
        self._admission = AdmissionController(
            system.loadmanager, self.config.policy,
            system.params.n_tape_drives,
        )
        self._tickets: dict[int, JobTicket] = {}
        self._active: dict[int, JobTicket] = {}
        self._active_by_tenant: dict[str, int] = {}
        self._job_ids = itertools.count(1)
        self._drain_waiters: list[Event] = []
        #: job_ids in dispatch order — the same-seed determinism witness
        self.dispatch_log: list[int] = []
        #: fair-share deviation sampled at each dispatch (trace-mirrored)
        self.deviation_samples: list[float] = []
        #: high-water mark of jobs in the system (queued + active)
        self.peak_in_flight = 0

        # -- degraded-mode state (inert until attach_health) ------------
        self._health = None
        self._degraded = self._admission.brownout_policy
        #: tenants shed during brownout (excluded from dispatch)
        self._shed: set[str] = set()
        self._readmit_rng = None
        #: bumped on every brownout edge; stale readmission loops exit
        self._readmit_epoch = 0
        self._brownout_since: Optional[float] = None
        #: (sim time, "enter" | "exit") brownout edges, in order
        self.brownout_log: list[tuple[float, str]] = []
        #: tickets preempted off dying nodes by the health plane
        self.health_requeues = 0

    # ------------------------------------------------------------------
    # tenants
    # ------------------------------------------------------------------
    def add_tenant(self, name: str, weight: float = 1.0,
                   project: str = "") -> Tenant:
        if name in self._tenants:
            raise SimulationError(f"tenant {name!r} already exists")
        tenant = Tenant(name, float(weight), project)
        self._tenants[name] = tenant
        self._queues[name] = TenantQueue(name)
        self._fair.add_tenant(name, weight)
        self._active_by_tenant[name] = 0
        return tenant

    @property
    def tenants(self) -> list[Tenant]:
        return list(self._tenants.values())

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------
    def submit(self, tenant: str, op: str, src: str, dst: str,
               priority: int = 0,
               cfg: Optional[PftoolConfig] = None) -> JobTicket:
        """Queue an ``archive`` (scratch→archive) or ``retrieve``
        (archive→scratch) job for *tenant*; returns its ticket."""
        if tenant not in self._tenants:
            raise SimulationError(
                f"unknown tenant {tenant!r}; add_tenant() first "
                f"(known: {sorted(self._tenants)})"
            )
        if op not in ("archive", "retrieve"):
            raise SimulationError(f"unknown service op {op!r}")
        cfg = cfg if cfg is not None else (
            self.config.default_cfg or PftoolConfig()
        )
        ticket = JobTicket(
            job_id=next(self._job_ids), tenant=tenant, op=op,
            src=src, dst=dst, cfg=cfg, priority=int(priority),
            submitted=self.env.now, done=self.env.event(),
        )
        self._admission.validate(ticket)
        return self._enqueue(ticket)

    def resume(self, job_id: int, priority: Optional[int] = None) -> JobTicket:
        """Resubmit a PREEMPTED ticket as a fresh submission sharing its
        journal: the resumed job re-copies only past the journal
        frontier, so preempt→resume converges to the oracle end state."""
        old = self.query(job_id)
        if old.state != PREEMPTED:
            raise SimulationError(
                f"job {job_id} is {old.state}, only preempted jobs resume"
            )
        if old.journal is None or old.journal.job_meta is None:
            raise SimulationError(
                f"job {job_id} has no journal to resume from"
            )
        ticket = JobTicket(
            job_id=next(self._job_ids), tenant=old.tenant, op=old.op,
            src=old.src, dst=old.dst, cfg=old.cfg,
            priority=old.priority if priority is None else int(priority),
            submitted=self.env.now, done=self.env.event(),
            journal=old.journal, resume_of=old.job_id,
        )
        self._admission.validate(ticket)
        self._counts["resumed"] += 1
        return self._enqueue(ticket)

    def _enqueue(self, ticket: JobTicket) -> JobTicket:
        self._tickets[ticket.job_id] = ticket
        queue = self._queues[ticket.tenant]
        if len(queue) == 0:
            self._fair.on_backlogged(ticket.tenant)
        queue.push(ticket)
        self._counts["submitted"] += 1
        self._note_depth()
        tr = self.env.trace
        if tr.enabled:
            tr.instant("sched:submit", tid="scheduler",
                       args={"job_id": ticket.job_id,
                             "tenant": ticket.tenant, "op": ticket.op,
                             "priority": ticket.priority})
        self._pump()
        return ticket

    # ------------------------------------------------------------------
    # query / cancel / preempt
    # ------------------------------------------------------------------
    def query(self, job_id: int) -> JobTicket:
        ticket = self._tickets.get(job_id)
        if ticket is None:
            raise SimulationError(f"unknown job id {job_id}")
        return ticket

    def cancel(self, job_id: int, reason: str = "cancelled by user") -> bool:
        """Cancel a queued or active job; True if the cancel took."""
        ticket = self.query(job_id)
        if ticket.state in TERMINAL_STATES or ticket.cancel_requested:
            return False
        if ticket.state == QUEUED:
            self._queues[ticket.tenant].remove(job_id)
            ticket.cancel_requested = True
            self._settle(ticket, CANCELLED)
            self._note_depth()
            return True
        # ACTIVE: abort the running PftoolJob; the Manager drains its
        # Exit protocol and the done event settles the ticket.
        ticket.cancel_requested = True
        ticket.job.cancel(reason)
        tr = self.env.trace
        if tr.enabled:
            tr.instant("sched:cancel", tid="scheduler",
                       args={"job_id": job_id, "state": ticket.state})
        return True

    def preempt(self, job_id: int, reason: str = "preempted") -> bool:
        """Preempt an ACTIVE job: it stops (journal intact) and its
        ticket parks in PREEMPTED until :meth:`resume`."""
        ticket = self.query(job_id)
        if ticket.state != ACTIVE or ticket.preempt_requested or (
            ticket.cancel_requested
        ):
            return False
        ticket.preempt_requested = True
        ticket.job.cancel(reason)
        tr = self.env.trace
        if tr.enabled:
            tr.instant("sched:preempt", tid="scheduler",
                       args={"job_id": job_id, "tenant": ticket.tenant})
        return True

    # ------------------------------------------------------------------
    # degraded mode (health-aware admission, ROADMAP item 4(c))
    # ------------------------------------------------------------------
    def attach_health(self, view, degraded: Optional[DegradedModePolicy] = None,
                      seed: int = 0) -> None:
        """Subscribe the service to a :class:`~repro.health.HealthView`.

        From here on the service fences FTA nodes the health plane marks
        down (draining their jobs through the preempt→resume journal
        path), parks retrieves while the library or catalog is unhealthy,
        and runs brownout admission while TSM is degraded or too much of
        the pool is fenced.  Readmission after recovery is rate-limited
        and jittered from a seeded stream so restored capacity is not
        stampeded.
        """
        if self._health is not None:
            raise SimulationError("health view already attached")
        self._health = view
        self._admission.health = view
        if degraded is not None:
            self._admission.brownout_policy = degraded
        self._degraded = self._admission.brownout_policy
        self._readmit_rng = RandomStreams(seed).stream("sched.readmit")
        view.subscribe(self._on_health_event)

    def _on_health_event(self, component: str, old: str, new: str) -> None:
        if component.startswith("node:"):
            node = component[len("node:"):]
            lm = self.system.loadmanager
            if node in lm.nodes:
                if new == "down" and node not in lm.fenced:
                    lm.fence(node)
                    self._trace_degraded("fence", node=node)
                    self._drain_node(node)
                elif new == "up" and node in lm.fenced:
                    lm.unfence(node)
                    self._trace_degraded("unfence", node=node)
        self._update_brownout()
        self._pump()

    def _drain_node(self, node: str) -> None:
        """Preempt every active job with ranks on *node*; the journal
        path resumes them on healthy nodes once they settle."""
        for ticket in list(self._active.values()):
            if node in ticket.nodes_used and not ticket.cancel_requested:
                if ticket.preempt_requested:
                    continue
                ticket.health_requeued = True
                self.health_requeues += 1
                self.preempt(ticket.job_id, reason=f"node {node} unhealthy")

    def _update_brownout(self) -> None:
        if self._health is None:
            return
        lm = self.system.loadmanager
        fenced_frac = len(lm.fenced) / max(1, len(lm.nodes))
        want = (
            not self._health.healthy("tsm")
            or fenced_frac >= self._degraded.node_down_brownout_fraction
        )
        if want and not self._admission.brownout:
            self._enter_brownout()
        elif not want and self._admission.brownout:
            self._exit_brownout()

    def _enter_brownout(self) -> None:
        self._admission.set_brownout(True)
        self._brownout_since = self.env.now
        self._readmit_epoch += 1  # abort any in-flight readmission
        self.brownout_log.append((self.env.now, "enter"))
        # shed the lowest-share tenants first, keeping at least one
        names = sorted(self._tenants.values(),
                       key=lambda t: (t.weight, t.name))
        n_shed = min(len(names) - 1,
                     int(self._degraded.shed_fraction * len(names)))
        self._shed = {t.name for t in names[:max(0, n_shed)]}
        self._trace_degraded("brownout-enter", shed=sorted(self._shed))

    def _exit_brownout(self) -> None:
        self._admission.set_brownout(False)
        self.brownout_log.append((self.env.now, "exit"))
        self._brownout_since = None
        self._trace_degraded("brownout-exit", shed=sorted(self._shed))
        self._readmit_epoch += 1
        if self._shed:
            # readmit one tenant at a time, highest share first, with
            # jittered pacing — no thundering herd onto the pools
            self.env.process(
                self._readmit(self._readmit_epoch),
                name="sched-readmit", daemon=True,
            )
        else:
            self._pump()

    def _readmit(self, epoch: int):
        order = sorted(
            (t for t in self._tenants.values() if t.name in self._shed),
            key=lambda t: (-t.weight, t.name),
        )
        for tenant in order:
            delay = self._degraded.readmit_interval
            if self._degraded.readmit_jitter > 0:
                delay += float(
                    self._readmit_rng.random() * self._degraded.readmit_jitter
                )
            yield self.env.timeout(delay)
            if epoch != self._readmit_epoch:
                return  # brownout re-entered; a fresh loop owns the rest
            self._shed.discard(tenant.name)
            self._trace_degraded("readmit", tenant=tenant.name)
            self._pump()

    @property
    def brownout(self) -> bool:
        return self._admission.brownout

    @property
    def shed_tenants(self) -> list[str]:
        return sorted(self._shed)

    def brownout_time(self) -> float:
        """Total simulated seconds spent in brownout so far."""
        total, since = 0.0, None
        for t, edge in self.brownout_log:
            if edge == "enter":
                since = t
            elif since is not None:
                total += t - since
                since = None
        if since is not None:
            total += self.env.now - since
        return total

    def degraded_summary(self) -> dict:
        """Deterministic account of the health plane's interventions."""
        return {
            "brownouts": sum(
                1 for _, e in self.brownout_log if e == "enter"
            ),
            "brownout_time": self.brownout_time(),
            "health_requeues": self.health_requeues,
            "shed": sorted(self._shed),
            "fenced": list(self.system.loadmanager.fenced),
        }

    def _trace_degraded(self, what: str, **args) -> None:
        tr = self.env.trace
        if tr.enabled:
            tr.instant(f"sched:{what}", tid="scheduler", cat="sched",
                       args=args)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _backlogged(self) -> list[str]:
        return [
            t for t, q in self._queues.items()
            if len(q) > 0 and t not in self._shed
        ]

    def _demanding(self) -> list[str]:
        """Tenants currently asking for service (queued or active)."""
        return [
            t for t in self._queues
            if len(self._queues[t]) > 0 or self._active_by_tenant[t] > 0
        ]

    def _pump(self) -> None:
        parked: set[str] = set()
        while True:
            backlogged = [t for t in self._backlogged() if t not in parked]
            if not backlogged:
                break
            tenant = self._fair.pick(backlogged)
            ticket = self._queues[tenant].peek()
            ok, reason = self._admission.admits(ticket)
            if not ok:
                if reason == "pool-shrunk":
                    # the FTA pool permanently shrank below this job's
                    # needs; settle it now instead of pinning the queue
                    ticket.blocked_on = reason
                    self._queues[tenant].pop()
                    ticket.cancel_requested = True
                    self._settle(ticket, CANCELLED)
                    self._note_depth()
                    continue
                if reason.endswith("-fenced"):
                    # a fenced dependency parks this *tenant's* head;
                    # other tenants' work (e.g. archives) still flows
                    if ticket.blocked_on != reason:
                        ticket.blocked_on = reason
                        tr = self.env.trace
                        if tr.enabled:
                            tr.instant("sched:blocked", tid="scheduler",
                                       args={"job_id": ticket.job_id,
                                             "reason": reason})
                    parked.add(tenant)
                    continue
                # Head-of-line wait: skipping the fair-share winner would
                # starve expensive jobs behind cheap ones.  Capacity
                # frees on the next completion, which pumps again.
                if ticket.blocked_on != reason:
                    ticket.blocked_on = reason
                    tr = self.env.trace
                    if tr.enabled:
                        tr.instant("sched:blocked", tid="scheduler",
                                   args={"job_id": ticket.job_id,
                                         "reason": reason})
                break
            self._queues[tenant].pop()
            self._dispatch(ticket)
        self._check_drained()

    def _dispatch(self, ticket: JobTicket) -> None:
        ticket.blocked_on = ""
        if ticket.resume_of is not None:
            cfg = replace(ticket.cfg, restart=True)
            job = self.system.resume_job(ticket.journal, cfg)
        else:
            ticket.journal = JobJournal(self.env)
            if ticket.op == "archive":
                job = self.system.archive(ticket.src, ticket.dst, ticket.cfg,
                                          journal=ticket.journal)
            else:
                job = self.system.retrieve(ticket.src, ticket.dst, ticket.cfg,
                                           journal=ticket.journal)
        ticket.job = job
        ticket.state = ACTIVE
        ticket.dispatched = self.env.now
        ticket.nodes_used = [
            job.ctx.node_of_rank(r) for r in sorted(job.live_ranks)
        ]
        self._admission.on_dispatch(ticket)
        self._active[ticket.job_id] = ticket
        self._active_by_tenant[ticket.tenant] += 1
        self._fair.charge(ticket.tenant, ticket.cost)
        self.dispatch_log.append(ticket.job_id)
        deviation = self._fair.deviation(self._demanding())
        self.deviation_samples.append(deviation)

        self._counts["dispatched"] += 1
        self._note_depth()
        tr = self.env.trace
        if tr.enabled:
            tr.instant("sched:dispatch", tid="scheduler",
                       args={"job_id": ticket.job_id,
                             "tenant": ticket.tenant,
                             "wait": round(ticket.wait_time, 9),
                             "cost": ticket.cost})
            tr.counter("sched:fairshare_dev", round(deviation, 9),
                       tid="scheduler")
        job.done.callbacks.append(
            lambda ev, t=ticket: self._on_job_done(t, ev)
        )

    def _on_job_done(self, ticket: JobTicket, ev: Event) -> None:
        self._admission.on_complete(ticket)
        del self._active[ticket.job_id]
        self._active_by_tenant[ticket.tenant] -= 1
        ticket.stats = ev.value if ev.ok else None
        aborted = ticket.stats is None or ticket.stats.aborted
        if ticket.cancel_requested and aborted:
            state = CANCELLED
        elif (ticket.preempt_requested and aborted) or not ev.ok:
            # a preemption that landed, or a crash-failed job: either
            # way the journal survives and the ticket is resumable
            state = PREEMPTED
        else:
            # includes cancel/preempt requests that raced completion —
            # the job finished before the Abort could land
            state = COMPLETED
        self._settle(ticket, state)
        if state == PREEMPTED and ticket.health_requeued and not (
            ticket.cancel_requested
        ):
            # node-drain preemption: requeue immediately on the surviving
            # pool — the resume shares the journal, so nothing re-copies
            self.resume(ticket.job_id)
        self._pump()

    def _settle(self, ticket: JobTicket, state: str) -> None:
        ticket.state = state
        ticket.finished = self.env.now
        self._counts[state] += 1
        self._note_depth()
        tr = self.env.trace
        if tr.enabled:
            tr.instant("sched:complete", tid="scheduler",
                       args={"job_id": ticket.job_id,
                             "tenant": ticket.tenant, "state": state})
        if not ticket.done.triggered:
            ticket.done.succeed(ticket.stats)
        self._check_drained()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return sum(len(q) for q in self._queues.values())

    @property
    def active_jobs(self) -> int:
        return len(self._active)

    @property
    def in_flight(self) -> int:
        """Jobs in the system: queued + active."""
        return self.queue_depth + self.active_jobs

    def _note_depth(self) -> None:
        depth, active = self.queue_depth, self.active_jobs
        if depth + active > self.peak_in_flight:
            self.peak_in_flight = depth + active
        tr = self.env.trace
        if tr.enabled:
            tr.counter("sched:queue_depth", depth, tid="scheduler")
            tr.counter("sched:active", active, tid="scheduler")

    def drain(self) -> Event:
        """Event that fires when no job is queued or active."""
        ev = self.env.event()
        if self.in_flight == 0:
            ev.succeed(self.summary())
        else:
            self._drain_waiters.append(ev)
        return ev

    def _check_drained(self) -> None:
        if self.in_flight == 0 and self._drain_waiters:
            waiters, self._drain_waiters = self._drain_waiters, []
            summary = self.summary()
            for ev in waiters:
                ev.succeed(summary)

    def summary(self) -> dict:
        """Deterministic account of everything the service has done."""
        return {
            **self._counts,
            "queued": self.queue_depth,
            "active": self.active_jobs,
            "peak_in_flight": self.peak_in_flight,
            "tenants": len(self._tenants),
            "max_deviation": max(self.deviation_samples, default=0.0),
            "dispatched_cost": dict(
                sorted(self._fair.dispatched_cost.items())
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ArchiveService tenants={len(self._tenants)} "
            f"queued={self.queue_depth} active={self.active_jobs}>"
        )
