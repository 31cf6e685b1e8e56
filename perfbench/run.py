"""Archive-simulator benchmark: one workload, one seed, one JSON result.

Run from the root of a checkout::

    python3 perfbench/run.py --workload archive_replay --seed 1 \\
        --seconds 30 --trace 0

Every repetition runs in a fresh interpreter (``child.py``), so no
module state carries over between them.

``--trace 0`` repeats the workload, tracing off, until ``--seconds``
have passed (at least two repetitions), takes a few extra set-up-only
samples, and reports the medians of the ``end_to_end`` metrics in
``BENCHMARK.json``.  ``--trace 1`` makes one untraced repetition, one
traced repetition (layer sampler and spans) and one history pass (other
workloads first, same interpreter) and reports the ``per_layer`` metrics.

Every repetition checks its outputs.  A run also fails when a simulated
value differs between fresh interpreters at the same seed.  The last
stdout line is the JSON result; a readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: whole-run limit; a child still running at this point is killed
RUN_LIMIT_S = 170.0
MIN_REPS = 2
MAX_REPS = 50
MIN_SETUPS = 5


class BenchError(Exception):
    """A repetition crashed, timed out or printed no result."""


def _spawn(args, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} repetition")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned)], env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} repetition timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{mode} repetition exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def _sim_diff(a: dict, b: dict) -> list[str]:
    """Names of simulated values that differ (exact comparison)."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def _timed(args, deadline: float, metrics: list[dict]):
    t_begin = time.monotonic()
    reps = []
    while len(reps) < MAX_REPS:
        reps.append(_spawn(args, "plain", deadline))
        elapsed = time.monotonic() - t_begin
        if len(reps) >= MIN_REPS and elapsed * (1 + 1 / len(reps)) > args.seconds:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(_spawn(args, "setup", deadline)["setup_s"])
    problems = []
    for i, rep in enumerate(reps[1:], 2):
        diff = _sim_diff(reps[0]["sim"], rep["sim"])
        if diff:
            problems.append(f"repetition {i} differs from 1 in {', '.join(diff)}")
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "files_per_s": statistics.median(r["files"] / r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }
    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}
    note = (f"{len(reps)} repetitions, {len(setups)} set-ups, "
            f"wall_s per repetition {[round(r['wall_s'], 3) for r in reps]}")
    return out, reps, problems, [note]


def _layer_values(fresh: dict, traced: dict, hist: dict) -> dict:
    from layers import LAYERS

    cpu = traced["cpu_s"]
    vals = dict(traced["layer"])
    # host-time percentiles come from the untraced repetition
    for key in ("tapedb.locate_p50_us", "tapedb.locate_p99_us"):
        if key in fresh["layer"]:
            vals[key] = fresh["layer"][key]
    for layer in LAYERS:
        vals[f"{layer}.self_s"] = cpu.get(layer, 0.0)
    vals["repro_other.self_s"] = sum(
        v for k, v in cpu.items() if k not in LAYERS and k != "other"
    )
    vals["other.self_s"] = cpu.get("other", 0.0)
    vals["trace_overhead"] = traced["wall_s"] / fresh["wall_s"]
    spans = traced["spans"]
    vals["hsm.migrate_s"] = spans.get("hsm.migrate", {}).get("total_s", 0.0)
    vals["tapedb.bulk_load_s"] = spans.get("tapedb.bulk_load", {}).get("total_s", 0.0)
    for key in ("sim_makespan_s", "sim_rate_mbps", "sim_job_p50_s", "sim_job_p99_s"):
        vals[key] = fresh["sim"].get(key, 0.0)
    vals["sim.history_drift"] = len(_sim_diff(fresh["sim"], hist["sim"]))
    return vals


def _layered(args, deadline: float, metrics: list[dict]):
    fresh = _spawn(args, "plain", deadline)
    traced = _spawn(args, "traced", deadline)
    hist = _spawn(args, "history", deadline)
    problems = []
    diff = _sim_diff(fresh["sim"], traced["sim"])
    if diff:
        problems.append(f"traced repetition differs in {', '.join(diff)}")
    vals = _layer_values(fresh, traced, hist)
    out = {
        m["name"]: {"value": vals.get(m["name"], 0), "unit": m["unit"]}
        for m in metrics
    }
    drift = _sim_diff(fresh["sim"], hist["sim"])
    total = sum(traced["cpu_s"].values())
    shares = sorted(traced["cpu_s"].items(), key=lambda kv: -kv[1])
    notes = [
        f"history pass after {', '.join(hist['polluters'])}: "
        f"{len(drift)} simulated values drift (fresh, after history) "
        + json.dumps({k: [fresh["sim"].get(k), hist["sim"].get(k)] for k in drift}),
        "layer shares of profiled CPU: " + ", ".join(
            f"{k} {v / total:.1%}" for k, v in shares
        ),
        "spans: " + json.dumps(traced["spans"]),
    ]
    return out, [fresh, traced, hist], problems, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("run.py: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("run.py: --seed must be 0 or more", file=sys.stderr)
        return 2

    run = _layered if args.trace else _timed
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        values, reps, problems, notes = run(args, deadline, metrics)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    problems += [p for r in reps for p in r["problems"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)

    print(f"== {args.workload} seed {args.seed} trace {args.trace}", file=sys.stderr)
    for note in notes:
        print("  " + note, file=sys.stderr)
    print("  simulated: " + json.dumps(reps[0]["sim"]), file=sys.stderr)
    if "paper" in reps[0]:
        for key, ref in reps[0]["paper"].items():
            print(f"  {key}: {ref['sim']:.2f} vs paper {ref['paper']:.2f} "
                  f"(error {ref['error']:+.1%})", file=sys.stderr)
    else:
        print("  unvalidated: no paper reference for this workload",
              file=sys.stderr)
    for p in problems:
        print("  FAILED CHECK: " + p, file=sys.stderr)

    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
