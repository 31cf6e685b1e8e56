"""The four seeded workloads, driven through ``repro``'s public entry points.

Each workload class splits one run into three phases:

* ``setup()`` builds the site and hands it the generated inputs (tree
  seeding, ``bulk_load``); it is billed to ``setup_s``;
* ``run()`` is the timed phase (``wall_s``);
* ``result()`` checks the outputs and gathers the counters; it is not
  timed.

``result()`` returns a dict with ``attempted``/``failed`` operations,
``problems`` (failed correctness checks, as strings), ``files`` (items
completed in the timed phase, for ``files_per_s``), ``sim`` (every
simulated value; a seed must reproduce them exactly in any fresh
interpreter) and ``layer`` (public per-layer counters).

Inputs come from the ``seed`` argument alone.  Nothing here writes a
file or reads the environment.
"""

from __future__ import annotations

import math
import statistics
import time
import zlib
from array import array

import numpy as np

from repro.archive import ArchiveParams, ParallelArchiveSystem
from repro.baselines import SerialArchiver
from repro.pftool import PftoolConfig
from repro.scheduler import ArchiveService, SchedulerConfig
from repro.scheduler.scenario import S1Params, build_site
from repro.sim import Environment, RandomStreams
from repro.tapedb import BufferGauge, ShardedTapeIndex, VolumeRangeRouter
from repro.workloads import PAPER_62_JOBS, generate_open_science_trace
from repro.workloads.generators import materialize_job, preload_tree

MB = 1_000_000
GB = 1_000_000_000


def _rng(seed: int, tag: int) -> np.random.Generator:
    """Input generator of one workload: a pure function of the seed."""
    return np.random.default_rng([seed, tag])


def _quantile(values, q: float) -> float:
    """Exclusive-method quantile (Python's ``statistics.quantiles``)."""
    vals = sorted(values)
    if len(vals) < 2:
        return float(vals[0]) if vals else 0.0
    cuts = statistics.quantiles(vals, n=1000)
    return float(cuts[round(q * 1000) - 1])


def site_layer_counters(system, jobs, fabric_transfers: int) -> dict:
    """Public counters of a whole site after a run."""
    env = system.env
    fab = system.topology.fabric
    arrays = [
        a
        for fs in (system.scratch_fs, system.archive_fs)
        for pool in fs.pools.values()
        for a in pool.arrays
    ]
    drives = system.library.drives
    seek = sum(d.seek_seconds for d in drives)
    stream = sum(d.stream_seconds for d in drives)
    db = system.tapedb
    return {
        "sim.events": env.events_processed,
        "sim.peak_queue": env.peak_queue_len,
        "sim.events_per_instant": env.events_processed / max(1, env.instants),
        "netsim.transfers": fabric_transfers,
        "netsim.rate_recomputes": fab.rate_recomputes,
        "netsim.bytes_delivered": fab.bytes_delivered,
        "pfs.bytes_written": system.scratch_fs.bytes_written
        + system.archive_fs.bytes_written,
        "pfs.bytes_read": system.scratch_fs.bytes_read
        + system.archive_fs.bytes_read,
        "disksim.ops": sum(a.reads + a.writes for a in arrays),
        "pftool.files_copied": sum(j.stats.files_copied for j in jobs),
        "pftool.retries": sum(j.stats.total_retries for j in jobs),
        "mpisim.messages": sum(j.comm.messages_sent for j in jobs),
        "tsm.transactions": system.tsm.transactions,
        "hsm.files_migrated": system.hsm.files_migrated,
        "hsm.files_recalled": system.hsm.files_recalled,
        "tapesim.mounts": system.library.total_mounts,
        "tapesim.sim_seek_s": seek,
        "tapesim.sim_stream_s": stream,
        "tapesim.stream_frac": stream / (seek + stream) if seek + stream else 0.0,
        "tapedb.queries": db.queries,
        "tapedb.cache_hit_rate": db.cache.hit_rate,
    }


class _Workload:
    name = ""

    def __init__(self, seed: int, spans) -> None:
        self.seed = seed
        self.spans = spans
        #: fabric.transfer calls, counted only when spans are recorded
        self.transfers = 0

    def _count_transfers(self, fab) -> None:
        """Count Fabric.transfer calls at the layer boundary (traced only)."""
        if not self.spans.enabled:
            return
        inner = fab.transfer

        def counted(*args, **kwargs):
            self.transfers += 1
            return inner(*args, **kwargs)

        fab.transfer = counted


# ---------------------------------------------------------------------------
# archive_replay: the FIG10 62-job trace on the full paper site
# ---------------------------------------------------------------------------

class ArchiveReplay(_Workload):
    """Open loop: 62 jobs arrive as a Poisson process (mean 60 s apart on
    the simulated clock) while background bursts share the trunk.

    The job list, arrival times, per-job worker counts and background
    bursts are Figure 10's own (the calibrated trace and its streams,
    seed 2009).  ``seed`` draws the file sizes inside each job's tree
    around the job's mean size.  Varying the schedule instead would
    change how many jobs overlap, and with it the fair-share solver's
    work by up to a third, so the host cost would mostly measure the
    seed.  Seed 0 gives Figure 10's own trees.
    """

    name = "archive_replay"
    MAX_FILES = 150
    MEAN_INTERARRIVAL = 60.0
    TRACE_SEED = 2009
    #: per-seed offset of the tree-size streams (more than the job count)
    TREE_SEED_STRIDE = 1000

    def setup(self) -> None:
        with self.spans.span("setup.site_build"):
            self.env = Environment()
            self.system = ParallelArchiveSystem(self.env, ArchiveParams())
        self._count_transfers(self.system.topology.fabric)
        with self.spans.span("setup.inputs"):
            self.trace = generate_open_science_trace(seed=self.TRACE_SEED)
            streams = RandomStreams(self.TRACE_SEED)
            self.rng = streams.stream("fig10")
            self.bg_rng = streams.stream("bg")

    def _background(self, stop):
        """Other users of the site: bursts of scratch -> FTA traffic."""
        env, rng = self.env, self.bg_rng
        fab = self.system.topology.fabric
        nodes = self.system.topology.fta_nodes
        while not stop["flag"]:
            evs = [
                fab.transfer(
                    "scratch", nodes[int(rng.integers(0, len(nodes)))],
                    float(rng.exponential(40 * GB)),
                    weight=float(rng.uniform(1.0, 5.0)), tag="background",
                )
                for _ in range(int(rng.integers(2, 6)))
            ]
            for ev in evs:
                yield ev
            yield env.timeout(float(rng.exponential(6.0)))

    def run(self) -> None:
        env, system, spans = self.env, self.system, self.spans
        self.jobs = []
        #: k -> (n_files, bytes seeded, job)
        self.done: dict[int, tuple] = {}
        stop = {"flag": False}
        all_done = env.event()
        env.process(self._background(stop))
        n_jobs = len(self.trace.jobs)

        def one_job(k, spec, start):
            yield env.timeout(start)
            root = f"/jobs/j{k:02d}"
            with spans.span("pfs.seed_tree"):
                tree = materialize_job(
                    system.scratch_fs, spec.scaled(self.MAX_FILES), root,
                    seed=spec.job_id + self.TREE_SEED_STRIDE * self.seed,
                )
            cfg = PftoolConfig(
                num_workers=int(self.rng.integers(4, 17)), num_readdir=2,
                num_tapeprocs=0, stat_batch=32, copy_batch=8,
            )
            with spans.span("pftool.archive_launch"):
                job = system.archive(root, f"/arc/j{k:02d}", cfg)
            self.jobs.append(job)
            yield job.done
            self.done[k] = (tree["n_files"], tree["total_bytes"], job)
            if len(self.done) == n_jobs:
                all_done.succeed(None)

        start = 0.0
        for k, spec in enumerate(self.trace.jobs):
            start += float(self.rng.exponential(self.MEAN_INTERARRIVAL))
            env.process(one_job(k, spec, start))
        with spans.span("sim.run_jobs"):
            env.run(until=all_done)
        self.makespan = env.now
        stop["flag"] = True
        with spans.span("sim.drain_background"):
            env.run()

        # serial comparator on the job whose mean file size is nearest
        # 500 MB, on the now quiet site
        self.serial_job = min(
            range(n_jobs),
            key=lambda k: abs(self.trace.jobs[k].mean_size - 500 * MB),
        )
        mover = SerialArchiver.attach_mover(system)
        serial = SerialArchiver(env, system.scratch_fs, system.archive_fs, mover)
        with spans.span("baselines.serial_archive"):
            self.serial = env.run(
                serial.archive_tree(f"/jobs/j{self.serial_job:02d}", "/serial")
            )

    def result(self) -> dict:
        problems = []
        n_jobs = len(self.trace.jobs)
        rates = []
        failed = n_jobs - len(self.done)
        for k, (n_files, nbytes, job) in sorted(self.done.items()):
            st = job.stats
            if st.aborted or st.bytes_copied != nbytes or st.files_copied != n_files:
                failed += 1
                problems.append(
                    f"job {k}: copied {st.files_copied} files/{st.bytes_copied} B"
                    f", seeded {n_files}/{nbytes}"
                )
            elif st.bytes_copied:
                rates.append(st.data_rate / MB)
        src_files = self.done.get(self.serial_job, (0,))[0]
        if self.serial.files != src_files or self.serial.rate <= 0:
            failed += 1
            problems.append(
                f"serial comparator copied {self.serial.files} of {src_files} files"
            )
        if failed:
            problems.append(f"{failed} of {n_jobs + 1} jobs failed")
        sim = {
            "sim_makespan_s": self.makespan,
            "sim_rate_mbps": float(np.mean(rates)) if rates else 0.0,
            "sim_rate_min_mbps": min(rates, default=0.0),
            "sim_rate_max_mbps": max(rates, default=0.0),
            "sim_serial_mbps": self.serial.rate / MB,
            "sim_events": self.env.events_processed,
        }
        return {
            "attempted": n_jobs + 1,
            "failed": failed,
            "problems": problems,
            "files": sum(st[0] for st in self.done.values()),
            "sim": sim,
            "layer": site_layer_counters(self.system, self.jobs, self.transfers),
            "paper": paper_errors(sim),
        }


def paper_errors(sim: dict) -> dict:
    """Relative error of the replay against the paper's Figure 10."""
    P = PAPER_62_JOBS
    refs = {
        "sim_rate_mbps": P["rate_mean"] / MB,
        "sim_rate_min_mbps": P["rate_min"] / MB,
        "sim_rate_max_mbps": P["rate_max"] / MB,
        "sim_serial_mbps": 70.0,
    }
    return {
        key: {"paper": ref, "sim": sim[key], "error": sim[key] / ref - 1.0}
        for key, ref in refs.items()
    }


# ---------------------------------------------------------------------------
# service_flood: S1 sizing through ArchiveService
# ---------------------------------------------------------------------------

class ServiceFlood(_Workload):
    """Open loop: the S1 flood, 1,400 two-file jobs from 12 weighted
    tenants arriving in a Poisson burst (mean 2 ms apart on the simulated
    clock), far faster than the 16-job admission ceiling drains them."""

    name = "service_flood"
    #: S1 sizing: tenants, jobs, arrival rate, file sizes, admission policy
    S1 = S1Params()

    def setup(self) -> None:
        p, rng = self.S1, _rng(self.seed, 2)
        with self.spans.span("setup.site_build"):
            self.env = Environment()
            self.system = build_site(self.env)
            self.service = ArchiveService(self.system, SchedulerConfig(
                policy=p.policy, default_cfg=p.cfg,
            ))
        self._count_transfers(self.system.topology.fabric)
        # weights cycle 1..4; each tenant's job count follows its weight
        weights = [1.0 + (i % 4) for i in range(p.n_tenants)]
        counts = [round(p.n_jobs * w / sum(weights)) for w in weights]
        counts[-1] = p.n_jobs - sum(counts[:-1])
        owners = []
        for i, (w, n) in enumerate(zip(weights, counts)):
            self.service.add_tenant(f"tenant{i:02d}", weight=w)
            owners += [f"tenant{i:02d}"] * n
        owners = [owners[i] for i in rng.permutation(len(owners))]
        gaps = rng.exponential(p.mean_arrival, size=p.n_jobs)
        mu = math.log(p.mean_file_bytes) - p.sigma ** 2 / 2
        sizes = np.maximum(
            1 * MB, rng.lognormal(mu, p.sigma, size=(p.n_jobs, p.files_per_job)),
        ).astype(np.int64)
        #: (arrival, tenant, src, dst, bytes seeded)
        self.schedule = []
        t = 0.0
        with self.spans.span("pfs.seed_trees"):
            for k, tenant in enumerate(owners):
                t += float(gaps[k])
                src = f"/jobs/{tenant}/j{k:05d}"
                nbytes = preload_tree(
                    self.system.scratch_fs, src, [int(s) for s in sizes[k]]
                )
                self.schedule.append(
                    (t, tenant, src, f"/arc/{tenant}/j{k:05d}", nbytes)
                )

    def run(self) -> None:
        env, service, spans = self.env, self.service, self.spans
        self.tickets = []

        def feeder():
            t_prev = 0.0
            for t, tenant, src, dst, nbytes in self.schedule:
                yield env.timeout(t - t_prev)
                t_prev = t
                with spans.span("scheduler.submit"):
                    ticket = service.submit(tenant, "archive", src, dst)
                self.tickets.append((ticket, nbytes))

        env.process(feeder(), name="flood-feeder")
        with spans.span("sim.run_service"):
            env.run(service.drain())
            env.run()

    def result(self) -> dict:
        summary = self.service.summary()
        problems = []
        terminal = summary["completed"] + summary["cancelled"] + summary["preempted"]
        if summary["submitted"] != terminal:
            problems.append(
                f"submitted {summary['submitted']} != completed+cancelled"
                f"+preempted {terminal}"
            )
        failed = 0
        for ticket, nbytes in self.tickets:
            st = ticket.stats
            if st is None or st.bytes_copied != nbytes:
                failed += 1
        if summary["submitted"] != self.S1.n_jobs:
            problems.append(f"submitted {summary['submitted']} of {self.S1.n_jobs}")
        failed += self.S1.n_jobs - len(self.tickets)
        if failed:
            problems.append(f"{failed} of {self.S1.n_jobs} jobs did not copy every byte")
        lat = [t.finished - t.submitted for t, _ in self.tickets
               if t.finished is not None]
        waits = [t.wait_time for t, _ in self.tickets if t.finished is not None]
        jobs = [t.job for t, _ in self.tickets if t.job is not None]
        dev_tail = self.service.deviation_samples[self.S1.warmup_dispatches:]
        sim = {
            "sim_makespan_s": self.env.now,
            "sim_job_p50_s": _quantile(lat, 0.5),
            "sim_job_p99_s": _quantile(lat, 0.99),
            "sim_completed": summary["completed"],
            "sim_events": self.env.events_processed,
        }
        layer = site_layer_counters(self.system, jobs, self.transfers)
        layer.update({
            "scheduler.dispatches": summary["dispatched"],
            "scheduler.peak_in_flight": summary["peak_in_flight"],
            "scheduler.sim_wait_p99_s": _quantile(waits, 0.99),
            "scheduler.max_deviation": max(dev_tail, default=0.0),
        })
        return {
            "attempted": self.S1.n_jobs,
            "failed": failed,
            "problems": problems,
            "files": sum(j.stats.files_copied for j in jobs),
            "sim": sim,
            "layer": layer,
        }


# ---------------------------------------------------------------------------
# tape_recall: migrate to tape, export the index, tape-ordered restore
# ---------------------------------------------------------------------------

class TapeRecall(_Workload):
    """Closed: one migration per collocation group (all in flight at
    once), one index export, then one tape-ordered retrieve job."""

    name = "tape_recall"
    N_FILES = 1600
    MEAN_FILE_BYTES = 30 * MB
    SIGMA = 0.4
    GROUPS = 4

    def setup(self) -> None:
        rng = _rng(self.seed, 3)
        with self.spans.span("setup.site_build"):
            self.env = Environment()
            self.system = build_site(self.env)
        self._count_transfers(self.system.topology.fabric)
        mu = math.log(self.MEAN_FILE_BYTES) - self.SIGMA ** 2 / 2
        self.sizes = [
            int(s) for s in np.maximum(
                4 * MB, rng.lognormal(mu, self.SIGMA, size=self.N_FILES)
            )
        ]
        with self.spans.span("pfs.seed_tree"):
            preload_tree(self.system.archive_fs, "/cold", self.sizes)
        paths = [f"/cold/f{i:04d}" for i in range(self.N_FILES)]
        order = rng.permutation(self.N_FILES)
        #: shuffled migration batches, one per collocation group
        self.batches = [
            [paths[i] for i in order[g::self.GROUPS]] for g in range(self.GROUPS)
        ]

    def run(self) -> None:
        env, system, spans = self.env, self.system, self.spans
        nodes = system.topology.fta_nodes
        with spans.span("hsm.migrate"):
            env.run(env.all_of([
                system.hsm.migrate(nodes[g % len(nodes)], batch,
                                   collocation_group=f"g{g}")
                for g, batch in enumerate(self.batches)
            ]))
        self.sim_migrated_at = env.now
        with spans.span("tapedb.export"):
            env.run(system.exporter.run_once())
        cfg = PftoolConfig(
            num_workers=4, num_readdir=1, num_tapeprocs=4,
            stat_batch=self.N_FILES, copy_batch=8, tape_ordering=True,
        )
        self.sim_retrieve_from = env.now
        with spans.span("pftool.retrieve"):
            self.job = system.retrieve("/cold", "/back", cfg)
            self.stats = env.run(self.job.done)

    def result(self) -> dict:
        fs = self.system.scratch_fs
        failed = 0
        restored_bytes = 0
        for i, size in enumerate(self.sizes):
            path = f"/back/f{i:04d}"
            if not fs.exists(path) or fs.lookup(path).size != size:
                failed += 1
            else:
                restored_bytes += size
        problems = []
        migrated = self.system.hsm.files_migrated
        if migrated != self.N_FILES:
            problems.append(f"migrated {migrated} of {self.N_FILES} files")
        if self.stats.tape_files_restored != migrated:
            problems.append(
                f"restored {self.stats.tape_files_restored} != migrated {migrated}"
            )
        if failed:
            problems.append(f"{failed} of {self.N_FILES} files missing or mis-sized")
        restore_s = self.env.now - self.sim_retrieve_from
        sim = {
            "sim_makespan_s": self.env.now,
            "sim_migrate_s": self.sim_migrated_at,
            "sim_restore_s": restore_s,
            "sim_rate_mbps": restored_bytes / MB / restore_s if restore_s else 0.0,
            "sim_events": self.env.events_processed,
        }
        return {
            "attempted": self.N_FILES,
            "failed": failed,
            "problems": problems,
            "files": migrated + self.stats.tape_files_restored,
            "sim": sim,
            "layer": site_layer_counters(self.system, [self.job], self.transfers),
        }


# ---------------------------------------------------------------------------
# catalog_scan: the tape index alone
# ---------------------------------------------------------------------------

class CatalogScan(_Workload):
    """Closed loop: one client issues ``locate_many`` batches back to
    back, then one streaming recall sort and one reconcile purge."""

    name = "catalog_scan"
    POPULATION = 100_000
    FILES_PER_VOLUME = 2000
    SHARDS = 8
    BATCH = 512
    CACHE_ENTRIES = 4096
    HOT_SET = 1024
    LOOKUP_BATCHES = 8000
    LOOKUPS_PER_BATCH = 16
    HOT_SHARE = 0.75
    ORPHAN_SHARE = 0.03
    FILESPACE = "archive"

    def setup(self) -> None:
        rng = _rng(self.seed, 4)
        n = self.POPULATION
        vols = -(-n // self.FILES_PER_VOLUME)
        vol_of = rng.integers(0, vols, size=n)
        seq_next = [0] * vols
        self.rows = []
        for i in range(n):
            v = int(vol_of[i])
            seq_next[v] += 1
            self.rows.append({
                "object_id": i + 1, "path": f"/m/d{i >> 10:04d}/f{i:07d}",
                "filespace": self.FILESPACE, "volume": f"VOL{v:06d}",
                "seq": seq_next[v], "nbytes": int(1024 + (i * 7919) % (1 << 20)),
            })
        #: objects deleted upstream; the reconcile purge must find them all
        self.orphans = set(
            int(i) + 1 for i in rng.choice(n, size=int(n * self.ORPHAN_SHARE),
                                           replace=False)
        )
        hot = rng.choice(n, size=self.HOT_SET, replace=False)
        is_hot = rng.random(size=(self.LOOKUP_BATCHES, self.LOOKUPS_PER_BATCH))
        hot_pick = rng.integers(0, self.HOT_SET, size=is_hot.shape)
        cold_pick = rng.integers(0, n, size=is_hot.shape)
        picks = np.where(is_hot < self.HOT_SHARE, hot[hot_pick], cold_pick)
        self.warmup = [self.rows[int(i)]["path"] for i in hot]
        #: (object ids, paths) per locate_many batch
        self.storm = [
            ([int(i) + 1 for i in batch], [self.rows[int(i)]["path"] for i in batch])
            for batch in picks
        ]
        self.env = Environment()
        self.db = ShardedTapeIndex(
            self.env, n_shards=self.SHARDS,
            router=VolumeRangeRouter.for_numbered(vols, self.SHARDS),
            cache_entries=self.CACHE_ENTRIES,
        )
        with self.spans.span("tapedb.bulk_load"):
            self.db.bulk_load(self.rows)

    def run(self) -> None:
        env, db, spans = self.env, self.db, self.spans
        # warm-up pass over the hot set: fills the cache, not timed per batch
        for lo in range(0, len(self.warmup), 64):
            env.run(db.locate_many(self.FILESPACE, self.warmup[lo:lo + 64]))
        self.hits0 = db.cache.hits
        self.misses0 = db.cache.misses
        self.lat_us = []
        self.wrong = 0
        clock = time.perf_counter
        with spans.span("tapedb.locate_storm"):
            for oids, paths in self.storm:
                t0 = clock()
                found = env.run(db.locate_many(self.FILESPACE, paths))
                self.lat_us.append((clock() - t0) * 1e6)
                for oid, p in zip(oids, paths):
                    loc = found.get(p)
                    if loc is None or loc.object_id != oid:
                        self.wrong += 1
        self.gauge = BufferGauge()
        with spans.span("tapedb.recall_sort"):
            self.order = [
                loc.object_id
                for loc in db.iter_recall_order(batch=self.BATCH, gauge=self.gauge)
            ]
        with spans.span("tapedb.reconcile"):
            found_orphans = [
                loc.object_id
                for loc in db.iter_recall_order(batch=self.BATCH, gauge=self.gauge)
                if loc.object_id in self.orphans
            ]
            self.purged = sum(db.remove(oid) for oid in found_orphans)

    def result(self) -> dict:
        problems = []
        want = [r["object_id"] for r in
                sorted(self.rows, key=lambda r: (r["volume"], r["seq"]))]
        if self.order != want:
            problems.append("recall order differs from the generated (volume, seq) sort")
        bound = self.SHARDS * self.BATCH
        if self.gauge.peak > bound:
            problems.append(f"peak live entries {self.gauge.peak} > {bound}")
        if self.purged != len(self.orphans) or len(self.db) != len(self.rows) - len(self.orphans):
            problems.append(f"purged {self.purged} orphans, generated {len(self.orphans)}")
        lookups = self.LOOKUP_BATCHES * self.LOOKUPS_PER_BATCH
        if self.wrong:
            problems.append(f"{self.wrong} of {lookups} lookups missed or wrong")
        hits = self.db.cache.hits - self.hits0
        misses = self.db.cache.misses - self.misses0
        sim = {
            "sim_makespan_s": self.env.now,
            "sim_order_crc": zlib.crc32(array("q", self.order).tobytes()),
            "sim_orphans": self.purged,
            "sim_cache_hits": hits,
            "sim_cache_misses": misses,
        }
        layer = {
            "sim.events": self.env.events_processed,
            "sim.peak_queue": self.env.peak_queue_len,
            "sim.events_per_instant": self.env.events_processed / max(1, self.env.instants),
            "tapedb.queries": self.db.queries,
            "tapedb.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "tapedb.peak_live": self.gauge.peak,
            "tapedb.locate_p50_us": _quantile(self.lat_us, 0.5),
            "tapedb.locate_p99_us": _quantile(self.lat_us, 0.99),
        }
        return {
            "attempted": lookups,
            "failed": self.wrong,
            "problems": problems,
            # rows touched: lookups, two full streams, purged orphans
            "files": lookups + 2 * len(self.rows) + self.purged,
            "sim": sim,
            "layer": layer,
        }


WORKLOADS = {
    w.name: w for w in (ArchiveReplay, ServiceFlood, TapeRecall, CatalogScan)
}
