"""FIG10 — per-job archive data rate (paper Figure 10).

Paper: over the 62 jobs, rates range 73 MB/s .. 1,868 MB/s with an
average of ~575 MB/s; the best jobs reach ~75% of the 2x10GigE trunk,
and the whole system is ~8x faster than a ~70 MB/s non-parallel
archiver.  The paper attributes the spread to "file size, number of
files archived, and overall system run-time status (bandwidth sharing
and machine sharing among multiple users)".

Reproduction: replay the calibrated 62-job trace through the full
simulated site with the operational realities the paper names —
overlapping jobs (Poisson arrivals) and per-job tunable variation
(users launched with different process counts).  Jobs are downscaled to
<=150 files each (mean file size preserved; rates are intensive).  The
serial baseline reproduces the ~70 MB/s comparator.
"""

import numpy as np

from repro.archive import ArchiveParams, ParallelArchiveSystem
from repro.baselines import SerialArchiver
from repro.metrics import comparison_table, render_series
from repro.pftool import PftoolConfig
from repro.sim import Environment, RandomStreams
from repro.workloads import PAPER_62_JOBS, generate_open_science_trace
from repro.workloads.generators import materialize_job

from _common import MB, GB, write_report

MAX_FILES = 150
MEAN_INTERARRIVAL = 60.0  # seconds between job submissions


def _background_load(env, system, rng, stop):
    """Other users of the shared site (the paper's 'bandwidth sharing and
    machine sharing among multiple users'): bursts of competing traffic
    between the scratch system and the FTA/LAN side."""
    fab = system.topology.fabric
    nodes = system.topology.fta_nodes
    while not stop["flag"]:
        n_flows = int(rng.integers(2, 6))
        evs = [
            fab.transfer(
                "scratch",
                nodes[int(rng.integers(0, len(nodes)))],
                float(rng.exponential(40 * GB)),
                weight=float(rng.uniform(1.0, 5.0)),
                tag="background",
            )
            for _ in range(n_flows)
        ]
        for ev in evs:
            yield ev
        # brief lull between bursts
        yield env.timeout(float(rng.exponential(6.0)))


def _run_trace():
    env = Environment()
    system = ParallelArchiveSystem(env, ArchiveParams())
    trace = generate_open_science_trace(seed=2009)
    rng = RandomStreams(2009).stream("fig10")
    rates: list[float] = []
    stop = {"flag": False}
    env.process(
        _background_load(env, system, RandomStreams(2009).stream("bg"), stop)
    )

    remaining = {"jobs": len(trace.jobs)}
    all_done = env.event()

    def one_job(k, job, start):
        yield env.timeout(start)
        sj = job.scaled(MAX_FILES)
        materialize_job(system.scratch_fs, sj, f"/jobs/j{k:02d}")
        workers = int(rng.integers(4, 17))
        cfg = PftoolConfig(
            num_workers=workers, num_readdir=2, num_tapeprocs=0,
            stat_batch=32, copy_batch=8,
        )
        stats = yield system.archive(f"/jobs/j{k:02d}", f"/arc/j{k:02d}", cfg).done
        if stats.bytes_copied:
            rates.append(stats.data_rate)
        remaining["jobs"] -= 1
        if remaining["jobs"] == 0:
            all_done.succeed(None)

    start = 0.0
    for k, job in enumerate(trace.jobs):
        start += float(rng.exponential(MEAN_INTERARRIVAL))
        env.process(one_job(k, job, start))
    env.run(until=all_done)
    stop["flag"] = True
    env.run()  # drain in-flight background bursts before the quiet baseline

    # serial comparator on a representative mid-size-file tree (quiet
    # system, mirroring vendor-quoted single-stream numbers)
    mid = min(
        range(len(trace.jobs)),
        key=lambda k: abs(trace.jobs[k].mean_size - 500 * MB),
    )
    mover = SerialArchiver.attach_mover(system)
    serial = SerialArchiver(
        env, system.scratch_fs, system.archive_fs, mover
    )
    sres = env.run(serial.archive_tree(f"/jobs/j{mid:02d}", "/serial"))
    return np.array(rates), sres.rate


def test_fig10_per_job_data_rate():
    rates, serial_rate = _run_trace()
    mbps = rates / MB
    P = PAPER_62_JOBS

    rows = [
        ("rate min MB/s", P["rate_min"] / MB, float(mbps.min())),
        ("rate max MB/s", P["rate_max"] / MB, float(mbps.max())),
        ("rate mean MB/s", P["rate_mean"] / MB, float(mbps.mean())),
        ("serial baseline MB/s", 70.0, serial_rate / MB),
        ("parallel/serial speedup", 575.0 / 70.0,
         float(mbps.mean()) / (serial_rate / MB)),
        ("peak trunk utilisation", 0.75, float(mbps.max()) / 2500.0),
    ]
    table = comparison_table(rows)
    series = render_series("Figure 10: data rate per job (MB/s)", mbps,
                           unit=" MB/s")
    report = f"{series}\n\n{table}"
    print("\n" + report)
    write_report("FIG10", report)

    assert len(mbps) == 62
    # shape assertions: who wins and by roughly what factor
    assert mbps.max() <= 2500.0  # never exceeds the 2x10GigE trunk
    assert mbps.max() >= 1000.0  # big jobs approach the trunk
    assert mbps.min() <= 200.0  # small-file jobs collapse
    assert 250.0 <= mbps.mean() <= 1200.0  # same regime as the paper's 575
    assert 40.0 <= serial_rate / MB <= 100.0  # the ~70 MB/s comparator
    assert mbps.mean() / (serial_rate / MB) > 4  # parallel wins by ~an order
