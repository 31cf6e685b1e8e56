"""CLI for the engine scenario suite.

Examples
--------
Run everything and write the golden file::

    python -m repro.perf --out benchmarks/results/BENCH_kernel.json

Run, then fail on any counter or headline drift against the committed
goldens (a named subset checks exactly that subset)::

    python -m repro.perf --check benchmarks/results/BENCH_kernel.json
    python -m repro.perf d1_library_outage \
        --check benchmarks/results/BENCH_kernel.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.perf import (
    SCENARIOS,
    compare_report,
    dump_report,
    format_report,
    load_report,
    run_suite,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Deterministic engine scenarios: simulated headlines "
        "and engine counters (emits BENCH_kernel.json).",
    )
    parser.add_argument(
        "names", nargs="*", metavar="SCENARIO",
        help="scenario name(s) to run (default: all; see --list)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the JSON report to PATH",
    )
    parser.add_argument(
        "--check", metavar="GOLDEN", default=None,
        help="compare engine counters and simulated headlines of the "
        "scenarios run against a golden report; exit 1 on any drift",
    )
    parser.add_argument(
        "--scenarios", metavar="NAMES", default=None,
        help="comma-separated subset to run (default: all)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    args = parser.parse_args(argv)

    from repro.perf import _ensure_scenarios_loaded

    _ensure_scenarios_loaded()
    if args.list:
        for name, fn in SCENARIOS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:<16} {doc}")
        return 0

    names = None
    if args.scenarios:
        names = [n.strip() for n in args.scenarios.split(",") if n.strip()]
    if args.names:
        names = (names or []) + list(args.names)

    report = run_suite(names)
    print(format_report(report))

    if args.out:
        dump_report(report, args.out)
        print(f"\nwrote {args.out}")

    if args.check:
        golden = load_report(args.check)
        drift = compare_report(report, golden, names)
        if drift:
            print(f"\nDRIFT vs {args.check}:", file=sys.stderr)
            for line in drift:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"\ncounters and headlines match {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
