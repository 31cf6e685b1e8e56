"""A3 — size-balanced migrator vs GPFS-native migration (§4.2.4).

Paper: GPFS's own migration "does not take into account load balancing
regarding file size or the number of GPFS machines.  One process may be
responsible for all of the large files in the list while another has
nothing but small files... all of these processes may be created on a
single machine."  The paper's migrator sorts candidates by size and
distributes them evenly by bytes, so per-node streams "complete at the
same time".

Bench: migrate a heavy-tailed candidate list three ways — balanced LPT,
native round-robin (size-oblivious), native single-machine — and compare
makespan and per-node completion skew.
"""

import numpy as np

from repro.archive import ArchiveParams, ParallelArchiveSystem
from repro.baselines import GpfsNativeMigrator
from repro.metrics import comparison_table
from repro.pfs import ListRule
from repro.sim import Environment, RandomStreams
from repro.workloads.generators import _instant_create

from _common import GB, MB, small_tape_spec, write_report

N_FILES = 48


def _candidates(env, system):
    """A heavy-tailed mix in adversarial scan order (big files clustered)."""
    rng = RandomStreams(42).stream("a3")
    sizes = np.concatenate(
        [rng.uniform(4 * GB, 8 * GB, 8), rng.uniform(50 * MB, 200 * MB, N_FILES - 8)]
    )
    system.archive_fs.mkdir("/mig", parents=True)
    for i, s in enumerate(sizes):
        _instant_create(system.archive_fs, "setup", f"/mig/f{i:03d}", int(s), 0xA3)
    res = env.run(
        system.archive_fs.policy.apply(
            [ListRule("c", "cand",
                      lambda p, i, now: p.startswith("/mig/") and i.is_file)]
        )
    )
    return res.lists["cand"]


def _run_mode(mode):
    env = Environment()
    system = ParallelArchiveSystem(
        env,
        ArchiveParams(n_fta=4, n_disk_servers=3, n_tape_drives=4,
                      n_scratch_tapes=16, tape_spec=small_tape_spec()),
    )
    hits = _candidates(env, system)
    if mode == "balanced":
        report = env.run(system.migrator.migrate(hits))
    elif mode == "native":
        report = env.run(GpfsNativeMigrator(env, system.hsm, spread=True).migrate(hits))
    else:
        report = env.run(GpfsNativeMigrator(env, system.hsm, spread=False).migrate(hits))
    return report


def _run():
    return {m: _run_mode(m) for m in ("balanced", "native", "single")}


def test_a3_balanced_vs_native_migration():
    reports = _run()
    bal, nat, single = reports["balanced"], reports["native"], reports["single"]

    rows = [
        ("balanced makespan s", 0.0, bal.duration),
        ("native round-robin s", 0.0, nat.duration),
        ("native single-node s", 0.0, single.duration),
        ("native/balanced", 1.3, nat.duration / bal.duration),
        ("single/balanced", 4.0, single.duration / bal.duration),
        ("balanced skew s", 0.0, bal.skew),
        ("native skew s", 0.0, nat.skew),
    ]
    table = comparison_table(rows)
    report = (
        f"A3  migration load balancing ({N_FILES} files, heavy-tailed)\n"
        f"  balanced LPT:   {bal.duration:7.1f}s  skew {bal.skew:6.1f}s\n"
        f"  native spread:  {nat.duration:7.1f}s  skew {nat.skew:6.1f}s\n"
        f"  native 1-node:  {single.duration:7.1f}s\n\n{table}"
    )
    print("\n" + report)
    write_report("A3", report)

    assert bal.files == nat.files == single.files == N_FILES
    # balanced completes sooner and with flatter per-node finish times
    assert bal.duration < nat.duration
    assert bal.skew < nat.skew
    assert single.duration > 2 * bal.duration  # one machine does it all
