"""Same-machine A/B of the archive-simulator benchmark: this checkout vs REV.

Usage, from anywhere inside the repository::

    python tools/perf_ab.py REV [--workload NAME]...

REV is checked out into a temporary ``git worktree``.  This checkout's
``perfbench/run.py --trace 0`` then runs each workload for the
``run_seconds`` in ``BENCHMARK.json``, once from this checkout's root
(the change) and once from the worktree (the parent), ``PAIRS`` times,
alternating which side goes first.  Both sides run the same benchmark
code, so only the code under ``src/`` differs.  The workloads are every
one in ``BENCHMARK.json``, or those named by ``--workload`` (repeatable).

For each workload and end-to-end metric it prints the medians and
quartiles of both sides and a verdict:

* ``ok`` — the change's median is no worse than the parent's by more
  than the metric's bound, or every change run beats every parent run;
* ``regressed`` — worse by more than the bound;
* ``unresolved`` — either side's runs spread (interquartile range over
  median) wider than the bound, so the medians cannot tell.

It exits 1 when a metric regressed, or when the change fails a larger
share of operations (or of runs) than the parent; unresolved metrics
are reported but do not fail.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: pairs of (change, parent) runs per workload
PAIRS = 5
#: perfbench's reference seed
SEED = 0


def spread(xs: list[float]) -> float:
    """Interquartile range over median."""
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(xs)


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    if all(sign * c < sign * p for c in change for p in parent):
        return "ok"
    if max(spread(parent), spread(change)) > bound:
        return "unresolved"
    p_med = statistics.median(parent)
    worse = sign * (statistics.median(change) - p_med) / p_med
    return "regressed" if worse > bound else "ok"


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True,
        text=True,
    ).stdout.strip()


def _run(root: pathlib.Path, workload: str, seconds: float) -> dict:
    """One perfbench run from *root*; a run that prints no result counts
    as incorrect with nothing attempted."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(proc.stderr[-2000:], file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def _fmt(xs: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def parse_args(argv, spec: dict) -> argparse.Namespace:
    """Command line; ``workload`` defaults to every workload in *spec*."""
    known = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("rev", metavar="REV", help="parent revision to compare with")
    ap.add_argument("--workload", action="append", choices=known, metavar="NAME",
                    help="workload to run (repeatable; default: all of "
                         "BENCHMARK.json)")
    args = ap.parse_args(argv)
    args.workload = list(dict.fromkeys(args.workload or known))
    return args


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    workloads = args.workload
    seconds = spec["run_seconds"]
    sha = _git("rev-parse", "--verify", f"{args.rev}^{{commit}}")

    t0 = time.monotonic()
    runs = {(w, side): [] for w in workloads for side in ("parent", "change")}
    with tempfile.TemporaryDirectory(prefix="perf_ab_") as tmp:
        parent_root = pathlib.Path(tmp) / "parent"
        _git("worktree", "add", "--detach", str(parent_root), sha)
        try:
            sides = [("change", ROOT), ("parent", parent_root)]
            for pair in range(PAIRS):
                for w in workloads:
                    for side, root in sides[::-1] if pair % 2 else sides:
                        res = _run(root, w, seconds)
                        runs[w, side].append(res)
                        print(f"pair {pair + 1}/{PAIRS} {w} {side}: "
                              f"correct={res['correct']}", file=sys.stderr)
        finally:
            _git("worktree", "remove", "--force", str(parent_root))

    print(f"A/B: this checkout vs {args.rev} ({sha[:12]}), {PAIRS} pairs, "
          f"seed {SEED}, {seconds:g} s per run")
    print(f"{'workload':<16} {'metric':<12} {'parent median [q1, q3]':<33} "
          f"{'change median [q1, q3]':<33} {'change':>7} {'bound':>6}  verdict")
    bad = False
    for w in workloads:
        par, chg = runs[w, "parent"], runs[w, "change"]
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in par if r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in chg if r["metrics"]]
            if len(pv) < 2 or len(cv) < 2:
                v, row = "unresolved", f"{'too few results':<75}"
            else:
                v = verdict(pv, cv, m["better"], m["bound"])
                delta = statistics.median(cv) / statistics.median(pv) - 1
                row = f"{_fmt(pv):<33} {_fmt(cv):<33} {delta:>+7.1%}"
            bad |= v == "regressed"
            print(f"{w:<16} {name:<12} {row} {m['bound']:>6.0%}  {v}")
        shares = {}
        for side, rs in (("parent", par), ("change", chg)):
            failed = sum(r["failed"] for r in rs)
            attempted = sum(r["attempted"] for r in rs)
            incorrect = sum(not r["correct"] for r in rs)
            shares[side] = (failed / attempted if attempted else 1.0, incorrect)
            print(f"{'':<16} {side} failed {failed}/{attempted} operations, "
                  f"{incorrect}/{len(rs)} runs incorrect")
        if any(c > p for c, p in zip(shares["change"], shares["parent"])):
            print(f"{'':<16} FAILED: the change fails more than the parent")
            bad = True
    print(f"wall time {time.monotonic() - t0:.0f} s; "
          + ("REGRESSION" if bad else "no regression beyond the bounds"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
