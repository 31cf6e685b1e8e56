"""``repro-bench``: the experiment index and how to regenerate each one."""

from __future__ import annotations

import argparse
import pathlib
import subprocess
import sys

__all__ = ["main"]

EXPERIMENTS = {
    "FIG1": ("Figure 1", "PFS vs archive bandwidth scaling gap",
             "test_fig1_scaling_gap.py"),
    "FIG8": ("Figure 8", "files archived per job (62-job trace)",
             "test_fig8_files_per_job.py"),
    "FIG9": ("Figure 9", "GB archived per job", "test_fig9_bytes_per_job.py"),
    "FIG10": ("Figure 10", "per-job data rate through the full site",
              "test_fig10_data_rate.py"),
    "FIG11": ("Figure 11", "mean file size per job", "test_fig11_file_size.py"),
    "E1": ("§6.1", "small-file tape collapse + aggregation fix",
           "test_e1_small_file_tape.py"),
    "E2": ("§6.2", "LAN-free recall thrashing: naive vs sticky routing",
           "test_e2_recall_thrashing.py"),
    "E3": ("§4.2.6", "synchronous delete vs reconcile tree-walk",
           "test_e3_sync_delete.py"),
    "A1": ("§4.1.2(3)", "single-file N-to-1 parallel copy speedup",
           "test_a1_nto1_copy.py"),
    "A2": ("§4.1.2(4)", "ArchiveFUSE N-to-N vs N-to-1", "test_a2_fuse_nton.py"),
    "A3": ("§4.2.4", "size-balanced vs native migration",
           "test_a3_balanced_migrator.py"),
    "A4": ("§4.5", "restartable chunked transfer", "test_a4_restart.py"),
    "A5": ("§4.1.2(2)", "tape-ordered vs unordered recall",
           "test_a5_tape_order.py"),
    "A6": ("§6.4", "multi-TSM-server scaling (sharded store)",
           "test_a6_multi_tsm.py"),
    "A7": ("§7", "grass-files tar-pipe packing",
           "test_a7_grass_files.py"),
    "A8": ("§4.2.2", "TSM co-location ablation",
           "test_a8_collocation.py"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="List or run the paper-reproduction experiments.",
    )
    parser.add_argument("experiment", nargs="?",
                        help="experiment id to run (e.g. E1); omit to list")
    args = parser.parse_args(argv)

    bench_dir = pathlib.Path(__file__).resolve().parents[3] / "benchmarks"
    if not args.experiment:
        print(f"{'id':<6} {'paper ref':<11} description")
        print("-" * 70)
        for exp, (ref, desc, _) in EXPERIMENTS.items():
            print(f"{exp:<6} {ref:<11} {desc}")
        print(f"\nrun one:  repro-bench E1")
        print(f"run all:  pytest {bench_dir} -q")
        return 0

    exp = args.experiment.upper()
    if exp not in EXPERIMENTS:
        print(f"unknown experiment {exp!r}", file=sys.stderr)
        return 2
    target = bench_dir / EXPERIMENTS[exp][2]
    return subprocess.call(
        [sys.executable, "-m", "pytest", str(target), "-q", "-s"],
        cwd=str(bench_dir),
    )


if __name__ == "__main__":
    raise SystemExit(main())
