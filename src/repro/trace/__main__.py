"""Trace a seeded scenario: ``python -m repro.trace``.

Runs one of the :mod:`repro.perf` scenarios under an installed tracer
and writes the event stream as both JSONL and Chrome ``trace_event``
JSON (load the latter in ``chrome://tracing`` or https://ui.perfetto.dev).

Examples
--------
::

    python -m repro.trace --scenario fig10_proxy --seed 3
    python -m repro.trace --scenario fabric_churn --seed 1 --out /tmp/t
    python -m repro.trace --list

Output is deterministic: repeating a run with the same scenario and
seed produces byte-identical files.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Optional, Sequence

from repro.trace import Tracer, tracing
from repro.trace.export import write_chrome, write_jsonl


def run_traced_scenario(name: str, seed: Optional[int] = None) -> Tracer:
    """Run perf scenario *name* under a fresh tracer; return the tracer.

    Scenarios whose function accepts a ``seed`` parameter get it passed
    through; for the rest ``--seed`` only labels the metadata (their
    seeding is baked in).
    """
    from repro.perf import SCENARIOS, _ensure_scenarios_loaded

    _ensure_scenarios_loaded()
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r} (have: {', '.join(SCENARIOS)})"
        )
    fn = SCENARIOS[name]
    kwargs = {}
    if seed is not None and "seed" in inspect.signature(fn).parameters:
        kwargs["seed"] = seed

    tracer = Tracer(metadata={"scenario": name, "seed": seed})
    with tracing(tracer):
        out = fn(**kwargs)
    tracer.metadata["headline"] = out.headline
    tracer.metadata["sim_end_time"] = out.env.now
    tracer.metadata["events_processed"] = out.env.events_processed
    tracer.finalize()
    return tracer


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Run a seeded repro.perf scenario with tracing on and "
        "emit JSONL + Chrome trace_event files.",
    )
    parser.add_argument(
        "--scenario", metavar="NAME", default=None,
        help="scenario to trace (see --list)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="scenario seed (passed to scenarios that accept one; default 0)",
    )
    parser.add_argument(
        "--out", metavar="BASE", default=None,
        help="output basename; writes BASE.jsonl and BASE.trace.json "
        "(default trace_<scenario>_s<seed>)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list traceable scenarios and exit"
    )
    args = parser.parse_args(argv)

    from repro.perf import SCENARIOS, _ensure_scenarios_loaded

    _ensure_scenarios_loaded()
    if args.list:
        for name, fn in SCENARIOS.items():
            seeded = "seed" in inspect.signature(fn).parameters
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            mark = "*" if seeded else " "
            print(f"{mark} {name:<16} {doc}")
        print("\n(* = honours --seed)")
        return 0

    if not args.scenario:
        parser.error("--scenario is required (or use --list)")

    try:
        tracer = run_traced_scenario(args.scenario, seed=args.seed)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    base = args.out or f"trace_{args.scenario}_s{args.seed}"
    jsonl_path = f"{base}.jsonl"
    chrome_path = f"{base}.trace.json"
    with open(jsonl_path, "w", encoding="utf-8") as fh:
        write_jsonl(tracer, fh)
    with open(chrome_path, "w", encoding="utf-8") as fh:
        write_chrome(tracer, fh)

    n_spans = sum(1 for ev in tracer.events if ev["ph"] == "X")
    n_instants = sum(1 for ev in tracer.events if ev["ph"] == "i")
    print(
        f"{args.scenario} (seed {args.seed}): {len(tracer.events)} events "
        f"({n_spans} spans, {n_instants} instants), "
        f"{len(tracer.metrics_snapshot())} metrics, sim end t="
        f"{tracer.metadata['sim_end_time']:.6f}"
    )
    print(f"wrote {jsonl_path}")
    print(f"wrote {chrome_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
