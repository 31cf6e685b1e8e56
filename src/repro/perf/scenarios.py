"""The engine microbenchmark scenarios.

Each scenario is a fully seeded simulation slice; its ``headline`` dict
holds only *simulated* quantities, so the numbers are identical on every
machine and across every engine optimisation that honours the
determinism guarantee.  Scenario groups:

* ``fabric_churn`` / ``fabric_sparse`` — the fair-share reallocation hot
  path in isolation (the bottleneck of fig8-fig11 and A1-A8);
* ``fig8_proxy`` / ``fig10_proxy`` / ``a1_proxy`` — reduced-scale
  replicas of paper benchmarks (files-per-job spread, overlapping jobs
  under background load, huge-file N-to-1), end-to-end through PFTool;
* ``store_churn`` / ``mpisim_fanout`` — kernel queue and message-plane
  churn (Store/FilterStore settle loops, delivery timers);
* ``s1_scheduler`` — the archive-as-a-service multi-tenant flood
  (ROADMAP item 1): >1000 jobs in flight across 12 weighted tenants
  under fair-share admission control.
"""

from __future__ import annotations

from repro.netsim.topology import build_archive_site
from repro.perf import ScenarioOutcome, scenario
from repro.sim import Environment, FilterStore, RandomStreams, Store

MB = 1_000_000
GB = 1_000_000_000


# ---------------------------------------------------------------------------
# pure fabric scenarios
# ---------------------------------------------------------------------------

@scenario("fabric_churn")
def fabric_churn(seed: int = 4242) -> ScenarioOutcome:
    """Overlapping transfers across the paper site's shared trunk.

    ~600 flows with Poisson arrivals and lognormal sizes, plus mid-run
    trunk degradation/repair — every arrival, departure and capacity
    change hits the fair-share allocator on one big shared component.
    """
    env = Environment()
    topo = build_archive_site(env)
    fab = topo.fabric
    rng = RandomStreams(seed).stream("fabric-churn")
    n_transfers = 600
    done_count = [0]

    endpoints = (
        [("scratch", fta) for fta in topo.fta_nodes]
        + [(fta, ds) for fta in topo.fta_nodes[:4] for ds in topo.disk_servers]
        + [("scratch", ds) for ds in topo.disk_servers]
    )

    def one(start: float, src: str, dst: str, nbytes: float, weight: float):
        yield env.timeout(start)
        yield fab.transfer(src, dst, nbytes, weight=weight)
        done_count[0] += 1

    start = 0.0
    for k in range(n_transfers):
        start += float(rng.exponential(0.08))
        src, dst = endpoints[int(rng.integers(0, len(endpoints)))]
        nbytes = float(rng.lognormal(mean=20.5, sigma=1.1))  # ~1.3 GB median
        weight = float(rng.uniform(1.0, 4.0))
        env.process(one(start, src, dst, nbytes, weight))

    def churn_trunk():
        # trunk degrades and recovers twice while traffic is in flight
        for factor in (0.4, 1.0, 0.6, 1.0):
            yield env.timeout(8.0)
            fab.set_link_capacity("site-trunk", factor * 2500 * MB)

    env.process(churn_trunk())
    env.run()
    return ScenarioOutcome(
        env=env,
        headline={
            "transfers_done": done_count[0],
            "bytes_delivered": round(fab.bytes_delivered, 3),
            "end_time": round(env.now, 9),
        },
        fabrics=(fab,),
    )


@scenario("fabric_sparse")
def fabric_sparse(seed: int = 77) -> ScenarioOutcome:
    """Many *independent* link pairs — disjoint allocation components.

    40 isolated src->dst pairs each carrying its own transfer stream.  A
    flow event on one pair can provably never move another pair's
    bottleneck, so an incremental allocator touches one component per
    event while a batch solver pays for all 40.
    """
    env = Environment()
    from repro.netsim.fabric import Fabric

    fab = Fabric(env, name="sparse")
    n_pairs = 40
    for i in range(n_pairs):
        fab.add_link(f"src{i}", f"dst{i}", capacity=1250 * MB, latency=1e-5)

    rng = RandomStreams(seed).stream("fabric-sparse")
    done_count = [0]

    def pump(i: int, n: int, seed_offset: int):
        prng = RandomStreams(1000 + seed_offset).stream(f"pair{i}")
        for _ in range(n):
            yield env.timeout(float(prng.exponential(0.5)))
            yield fab.transfer(
                f"src{i}", f"dst{i}", float(prng.lognormal(19.0, 0.8))
            )
            done_count[0] += 1

    per_pair = 12
    for i in range(n_pairs):
        env.process(pump(i, per_pair, int(rng.integers(0, 1 << 30))))
    env.run()
    return ScenarioOutcome(
        env=env,
        headline={
            "transfers_done": done_count[0],
            "bytes_delivered": round(fab.bytes_delivered, 3),
            "end_time": round(env.now, 9),
        },
        fabrics=(fab,),
    )


# ---------------------------------------------------------------------------
# reduced paper-figure scenarios (end-to-end through PFTool)
# ---------------------------------------------------------------------------

@scenario("fig10_proxy")
def fig10_proxy(seed: int = 2009) -> ScenarioOutcome:
    """Reduced Figure-10 trace: overlapping archive jobs + background load.

    8 jobs (each <=24 files) with Poisson arrivals on the full simulated
    site while competing bursts share the trunk — the same shape as
    ``benchmarks/test_fig10_data_rate.py`` at ~1/10 scale.
    """
    from repro.archive import ArchiveParams, ParallelArchiveSystem
    from repro.pftool import PftoolConfig
    from repro.workloads import generate_open_science_trace
    from repro.workloads.generators import materialize_job

    env = Environment()
    system = ParallelArchiveSystem(env, ArchiveParams())
    fab = system.topology.fabric
    trace = generate_open_science_trace(seed=seed)
    rng = RandomStreams(seed).stream("fig10-proxy")
    bg_rng = RandomStreams(seed).stream("fig10-proxy-bg")
    jobs = trace.jobs[:8]

    total = {"bytes": 0, "files": 0, "jobs_done": 0}
    stop = {"flag": False}
    all_done = env.event()

    def background():
        nodes = system.topology.fta_nodes
        while not stop["flag"]:
            evs = [
                fab.transfer(
                    "scratch",
                    nodes[int(bg_rng.integers(0, len(nodes)))],
                    float(bg_rng.exponential(10 * GB)),
                    weight=float(bg_rng.uniform(1.0, 5.0)),
                    tag="background",
                )
                for _ in range(int(bg_rng.integers(2, 5)))
            ]
            for ev in evs:
                yield ev
            yield env.timeout(float(bg_rng.exponential(5.0)))

    def one_job(k, job, start):
        yield env.timeout(start)
        sj = job.scaled(24)
        materialize_job(system.scratch_fs, sj, f"/jobs/j{k:02d}")
        cfg = PftoolConfig(
            num_workers=int(rng.integers(4, 13)), num_readdir=2,
            num_tapeprocs=0, stat_batch=32, copy_batch=8,
        )
        stats = yield system.archive(f"/jobs/j{k:02d}", f"/arc/j{k:02d}", cfg).done
        total["bytes"] += stats.bytes_copied
        total["files"] += stats.files_copied
        total["jobs_done"] += 1
        if total["jobs_done"] == len(jobs):
            all_done.succeed(None)

    env.process(background())
    start = 0.0
    for k, job in enumerate(jobs):
        start += float(rng.exponential(20.0))
        env.process(one_job(k, job, start))
    env.run(until=all_done)
    stop["flag"] = True
    env.run()
    return ScenarioOutcome(
        env=env,
        headline={
            "jobs_done": total["jobs_done"],
            "files_copied": total["files"],
            "bytes_copied": total["bytes"],
            "end_time": round(env.now, 9),
        },
        fabrics=(fab,),
    )


@scenario("fig8_proxy")
def fig8_proxy(seed: int = 2009) -> ScenarioOutcome:
    """Reduced Figure-8 workload: files-per-job spread through PFTool.

    Six overlapping archive jobs whose file counts span two-plus
    decades (1 .. ~120 files, drawn from the calibrated open-science
    trace), all through the full simulated site — the figure's point is
    the per-job file-count spread, so the headline carries the spread
    alongside the usual conservation totals.
    """
    from repro.archive import ArchiveParams, ParallelArchiveSystem
    from repro.pftool import PftoolConfig
    from repro.workloads import generate_open_science_trace
    from repro.workloads.generators import materialize_job

    env = Environment()
    system = ParallelArchiveSystem(env, ArchiveParams())
    fab = system.topology.fabric
    trace = generate_open_science_trace(seed=seed)
    rng = RandomStreams(seed).stream("fig8-proxy")
    scales = (1, 4, 12, 30, 60, 120)
    jobs = trace.jobs[: len(scales)]

    total = {"bytes": 0, "files": 0, "jobs_done": 0}
    spread = {"min": None, "max": 0}

    def one_job(k, job, start, n_files):
        yield env.timeout(start)
        sj = job.scaled(n_files)
        materialize_job(system.scratch_fs, sj, f"/jobs/f{k:02d}")
        cfg = PftoolConfig(
            num_workers=int(rng.integers(4, 9)), num_readdir=2,
            num_tapeprocs=0, stat_batch=32, copy_batch=8,
        )
        stats = yield system.archive(f"/jobs/f{k:02d}", f"/arc/f{k:02d}", cfg).done
        total["bytes"] += stats.bytes_copied
        total["files"] += stats.files_copied
        total["jobs_done"] += 1
        lo = spread["min"]
        spread["min"] = stats.files_copied if lo is None else min(lo, stats.files_copied)
        spread["max"] = max(spread["max"], stats.files_copied)

    start = 0.0
    for k, (job, n_files) in enumerate(zip(jobs, scales)):
        start += float(rng.exponential(8.0))
        env.process(one_job(k, job, start, n_files))
    env.run()
    return ScenarioOutcome(
        env=env,
        headline={
            "jobs_done": total["jobs_done"],
            "files_copied": total["files"],
            "files_per_job_min": spread["min"] or 0,
            "files_per_job_max": spread["max"],
            "bytes_copied": total["bytes"],
            "end_time": round(env.now, 9),
        },
        fabrics=(fab,),
    )


@scenario("a1_proxy")
def a1_proxy() -> ScenarioOutcome:
    """Reduced A1: one 8 GB file copied N-to-1 with 4 and 16 workers."""
    from repro.archive import ArchiveParams, ParallelArchiveSystem
    from repro.pftool import PftoolConfig
    from repro.tapesim import TapeSpec
    from repro.workloads import huge_file_campaign

    headline: dict[str, float] = {}
    env_last = None
    fabrics = []
    events_total = 0
    peak = 0
    instants_total = 0
    batch_max = 0
    spec = TapeSpec(
        native_rate=120e6, load_time=10.0, unload_time=10.0, rewind_full=40.0,
        seek_base=1.0, locate_rate=10e9, label_verify=5.0, backhitch=1.93,
        capacity=800 * GB,
    )
    for workers in (4, 16):
        env = Environment()
        system = ParallelArchiveSystem(
            env,
            ArchiveParams(n_fta=10, n_disk_servers=5, n_tape_drives=1,
                          n_scratch_tapes=4, tape_spec=spec),
        )
        huge_file_campaign(system.scratch_fs, "/big", 1, 8 * GB)
        cfg = PftoolConfig(
            num_workers=workers, num_readdir=1, num_tapeprocs=0,
            chunk_threshold=1 * GB, copy_chunk_size=512 * MB,
            fuse_threshold=10**15,
        )
        stats = env.run(system.archive("/big", "/a", cfg).done)
        headline[f"duration_w{workers}"] = round(stats.duration, 9)
        events_total += env.events_processed
        peak = max(peak, env.peak_queue_len)
        instants_total += env.instants
        batch_max = max(batch_max, env.max_instant_batch)
        fabrics.append(system.topology.fabric)
        env_last = env
    # fold both runs' event counters into the reported environment
    env_last.events_processed = events_total
    env_last.peak_queue_len = peak
    env_last.instants = instants_total
    env_last.max_instant_batch = batch_max
    return ScenarioOutcome(env=env_last, headline=headline, fabrics=tuple(fabrics))


# ---------------------------------------------------------------------------
# kernel queue scenarios
# ---------------------------------------------------------------------------

@scenario("store_churn")
def store_churn() -> ScenarioOutcome:
    """Store/FilterStore settle-loop churn plus mass get-cancellation.

    30k items through a bounded FIFO store, 6k filtered receives against
    a mailbox, and 10k parked gets cancelled in one sweep — the queue
    operations PFTool's ranks execute per file.
    """
    env = Environment()
    fifo = Store(env, capacity=64)
    mail = FilterStore(env)
    moved = [0, 0]

    n_items = 30_000

    def producer():
        for i in range(n_items):
            yield fifo.put(i)

    def consumer():
        for _ in range(n_items):
            yield fifo.get()
            moved[0] += 1

    n_msgs = 6_000

    def mail_producer():
        for i in range(n_msgs):
            yield mail.put((i % 7, i))
            if i % 64 == 0:
                yield env.timeout(0.001)

    def mail_consumer(residue):
        for _ in range(n_msgs // 7 + (1 if residue < n_msgs % 7 else 0)):
            yield mail.get(lambda m, r=residue: m[0] == r)
            moved[1] += 1

    def mass_cancel():
        # 10k parked gets withdrawn without ever receiving an item —
        # the StoreGet.cancel O(1) regression scenario
        idle = Store(env)
        gets = [idle.get() for _ in range(10_000)]
        yield env.timeout(0.5)
        for g in gets:
            g.cancel()
        yield idle.put("drain")
        item = yield idle.get()
        assert item == "drain"

    env.process(producer())
    env.process(consumer())
    env.process(mail_producer())
    for r in range(7):
        env.process(mail_consumer(r))
    env.process(mass_cancel())
    env.run()
    return ScenarioOutcome(
        env=env,
        headline={
            "fifo_moved": moved[0],
            "mail_moved": moved[1],
            "end_time": round(env.now, 9),
        },
    )


@scenario("mpisim_fanout")
def mpisim_fanout() -> ScenarioOutcome:
    """Manager/worker message plane: request-assign-report round trips.

    32 workers each complete 150 work items against rank 0 — the
    per-message delivery cost (timer + mailbox put) dominates, which is
    exactly what the pooled delivery fast path targets.
    """
    from repro.mpisim import SimComm

    env = Environment()
    n_workers = 32
    per_worker = 150
    comm = SimComm(env, size=n_workers + 1)
    done = [0]

    TAG_REQ, TAG_WORK, TAG_DONE = 1, 2, 3

    def manager():
        remaining = n_workers * per_worker
        handed = 0
        while remaining:
            msg = yield comm.recv(0)
            if msg.tag == TAG_REQ:  # noqa: RA002 - bench protocol has 2 tags only
                comm.send(0, msg.source, ("work", handed), TAG_WORK)
                handed += 1
            elif msg.tag == TAG_DONE:
                remaining -= 1

    def worker(rank):
        for _ in range(per_worker):
            comm.send(rank, 0, "req", TAG_REQ)
            yield comm.recv(rank, source=0, tag=TAG_WORK)
            yield env.timeout(0.001)
            comm.send(rank, 0, "done", TAG_DONE)
            done[0] += 1

    env.process(manager())
    for r in range(1, n_workers + 1):
        env.process(worker(r))
    env.run()
    return ScenarioOutcome(
        env=env,
        headline={
            "items_done": done[0],
            "messages_sent": comm.messages_sent,
            "end_time": round(env.now, 9),
        },
    )


# ---------------------------------------------------------------------------
# archive-as-a-service scenario
# ---------------------------------------------------------------------------

@scenario("s1_scheduler")
def s1_scheduler(seed: int = 1001) -> ScenarioOutcome:
    """Benchmark S1: the multi-tenant scheduler flood.

    12 weighted tenants burst 1400 tiny archive jobs at the service;
    admission control caps the FTA pool while stride fair-share picks
    dispatch order, so >1000 jobs sit in the system at the peak.  The
    headline carries the scheduler's own conservation and fairness
    numbers alongside the usual event-count metrics.
    """
    from repro.scheduler.scenario import S1Params, run_s1

    result = run_s1(S1Params(seed=seed))
    return ScenarioOutcome(
        env=result["env"],
        headline=result["headline"],
        fabrics=(result["system"].topology.fabric,),
    )
