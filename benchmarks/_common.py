"""Shared helpers for the paper-reproduction benchmarks.

Every bench:

* builds the paper-scale site (or a stated reduction, documented in
  EXPERIMENTS.md),
* runs the simulation once,
* prints a paper-vs-measured comparison table and writes it to
  ``benchmarks/results/<exp>.txt`` so EXPERIMENTS.md has durable
  artifacts.  Reports hold simulated values only, so rerunning the
  benches leaves them unchanged.

Host time is measured by ``perfbench/``, not here.
"""

from __future__ import annotations

import json
import pathlib

from repro.archive import ArchiveParams, ParallelArchiveSystem
from repro.perf import compare_report
from repro.pftool import PftoolConfig
from repro.sim import Environment
from repro.tapesim import TapeSpec

MB = 1_000_000
GB = 1_000_000_000
TB = 1_000_000_000_000

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
GOLDEN = RESULTS_DIR / "BENCH_kernel.json"


def paper_site(env: Environment, **over) -> ParallelArchiveSystem:
    """The full Figure-7 deployment (10 FTA, 5 NSD, 24 LTO-4, 2x10GigE)."""
    params = ArchiveParams(**over)
    return ParallelArchiveSystem(env, params)


def small_tape_spec() -> TapeSpec:
    """LTO-4 timing with milder mount costs for reduced-scale benches."""
    return TapeSpec(
        native_rate=120e6, load_time=10.0, unload_time=10.0, rewind_full=40.0,
        seek_base=1.0, locate_rate=10e9, label_verify=5.0, backhitch=1.93,
        capacity=800 * GB,
    )


def pftool_cfg(**over) -> PftoolConfig:
    kw = dict(num_workers=16, num_readdir=2, num_tapeprocs=6,
              stat_batch=32, copy_batch=8)
    kw.update(over)
    return PftoolConfig(**kw)


def seed_scratch_tree(env, system, layout: dict) -> None:
    """Instantaneous scratch setup (pre-existing data, not billed)."""
    from repro.workloads.generators import _instant_create

    for path, size in layout.items():
        parent = path.rsplit("/", 1)[0] or "/"
        system.scratch_fs.mkdir(parent, parents=True)
        _instant_create(system.scratch_fs, "setup", path, size, 0xBE << 20)


def write_report(exp_id: str, text: str) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{exp_id}.txt"
    path.write_text(text + "\n")
    return path


def check_golden(report: dict, names=None) -> None:
    """Assert *report* matches ``BENCH_kernel.json`` on *names* (None = all)."""
    golden = json.loads(GOLDEN.read_text())
    drift = compare_report(report, golden, names)
    assert not drift, "drift vs BENCH_kernel.json:\n" + "\n".join(drift)
