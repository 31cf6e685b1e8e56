"""Engine microbenchmark harness (``python -m repro.perf``).

Tracks the simulator's performance trajectory from PR to PR.  Each
*scenario* is a deterministic, seeded simulation slice that stresses one
engine hot path (fabric fair-share reallocation, store/queue churn,
mpisim message delivery, or a reduced paper-figure workload).  The
runner measures, per scenario:

* ``wall_s`` — wall-clock seconds for one run,
* ``events`` / ``events_per_s`` — kernel events popped and throughput,
* ``peak_queue_len`` — event-queue high-water mark,
* ``instants`` / ``max_instant_batch`` — same-instant dispatch cohorts
  and the largest one (``events / instants`` is the mean batch size the
  cohort drain amortises generator-resume overhead over),
* ``rate_recomputes`` — fair-share solver invocations on all fabrics,
* ``headline`` — *simulated* outputs (bytes moved, job durations, end
  times).  These are machine-independent and guarded by
  :func:`compare_headlines`: any optimisation must leave them unchanged,
  which is how the determinism guarantee turns perf work into a
  mechanically checkable refactor.

``BENCH_kernel.json`` (written by ``--out``, committed under
``benchmarks/results/``) is both the perf trajectory record and the
golden file CI's perf-smoke job checks drift against.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from repro.sim import Environment

__all__ = [
    "SCENARIOS",
    "ScenarioOutcome",
    "compare_headlines",
    "run_scenario",
    "run_suite",
    "scenario",
]

#: JSON schema version of the emitted report
SCHEMA = 1

#: relative tolerance for headline comparisons — simulated quantities are
#: deterministic, but summation order may legally shift by float ulps when
#: the engine's internal event sequencing changes
HEADLINE_RTOL = 1e-9


@dataclass
class ScenarioOutcome:
    """What a scenario function returns to the runner."""

    env: Environment
    #: simulated, machine-independent result numbers (the golden values)
    headline: dict[str, float]
    #: fabrics whose ``rate_recomputes`` counters to aggregate
    fabrics: tuple = ()
    notes: str = ""
    #: machine-dependent trajectory numbers (files/sec and friends) —
    #: reported alongside wall_s/events_per_s, never compared as goldens
    extras: Optional[dict] = None


#: name -> scenario callable, in registration (report) order
SCENARIOS: dict[str, Callable[[], ScenarioOutcome]] = {}


def scenario(name: str) -> Callable:
    """Register a scenario function under *name*."""

    def _register(fn: Callable[[], ScenarioOutcome]) -> Callable:
        if name in SCENARIOS:
            raise ValueError(f"duplicate scenario {name!r}")
        SCENARIOS[name] = fn
        return fn

    return _register


def run_scenario(name: str) -> dict:
    """Run one scenario and return its metrics dict."""
    fn = SCENARIOS[name]
    t0 = time.perf_counter()  # noqa: RA001 - benchmark harness measures wall clock
    out = fn()
    wall = time.perf_counter() - t0  # noqa: RA001 - benchmark harness measures wall clock
    env = out.env
    events = env.events_processed
    return {
        "wall_s": round(wall, 4),
        "events": events,
        "events_per_s": int(events / wall) if wall > 0 else 0,
        "peak_queue_len": env.peak_queue_len,
        "instants": env.instants,
        "max_instant_batch": env.max_instant_batch,
        "rate_recomputes": int(sum(f.rate_recomputes for f in out.fabrics)),
        "headline": out.headline,
        **({"extra": out.extras} if out.extras else {}),
    }


def run_suite(names: Optional[Iterable[str]] = None) -> dict:
    """Run scenarios (all by default) and return the full report dict."""
    _ensure_scenarios_loaded()
    selected = list(names) if names is not None else list(SCENARIOS)
    unknown = [n for n in selected if n not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown scenario(s): {', '.join(unknown)}")
    return {
        "schema": SCHEMA,
        "scenarios": {name: run_scenario(name) for name in selected},
    }


_SCENARIO_MODULES_LOADED = False


def _ensure_scenarios_loaded() -> None:
    # a flag, not ``if not SCENARIOS`` — importing one scenario module
    # directly (e.g. ``repro.perf.metadata`` from a test) pre-populates
    # the registry and must not stop the others from loading
    global _SCENARIO_MODULES_LOADED
    if not _SCENARIO_MODULES_LOADED:
        from repro.perf import drills, metadata, scenarios  # noqa: F401 - registers on import

        _SCENARIO_MODULES_LOADED = True


def compare_headlines(
    report: Mapping, golden: Mapping, rtol: float = HEADLINE_RTOL
) -> list[str]:
    """Differences between a report's and a golden file's headline numbers.

    Only ``headline`` values are compared — wall-clock and events/sec are
    machine-dependent trajectory data, not correctness.  Returns a list of
    human-readable drift descriptions (empty = no drift).  Scenarios present
    in the golden file but missing from the report are drift (a bench was
    silently dropped); extra scenarios in the report are not (new benches
    may land before their goldens).
    """
    drift: list[str] = []
    gold_scenarios = golden.get("scenarios", {})
    new_scenarios = report.get("scenarios", {})
    for name, gold in gold_scenarios.items():
        mine = new_scenarios.get(name)
        if mine is None:
            drift.append(f"{name}: scenario missing from report")
            continue
        gold_head = gold.get("headline", {})
        mine_head = mine.get("headline", {})
        for key, want in gold_head.items():
            if key not in mine_head:
                drift.append(f"{name}.{key}: missing (golden {want!r})")
                continue
            got = mine_head[key]
            if not _close(got, want, rtol):
                drift.append(f"{name}.{key}: {got!r} != golden {want!r}")
    return drift


def _close(a, b, rtol: float) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    try:
        fa, fb = float(a), float(b)
    except (TypeError, ValueError):
        return a == b
    if fa == fb:
        return True
    return abs(fa - fb) <= rtol * max(abs(fa), abs(fb))


def format_report(report: Mapping) -> str:
    """Human-readable table of a suite report."""
    lines = [
        f"{'scenario':<16} {'wall s':>8} {'events':>10} {'events/s':>10} "
        f"{'peak q':>7} {'instants':>9} {'max batch':>9} {'recomputes':>10}",
    ]
    for name, m in report.get("scenarios", {}).items():
        lines.append(
            f"{name:<16} {m['wall_s']:>8.3f} {m['events']:>10} "
            f"{m['events_per_s']:>10} {m['peak_queue_len']:>7} "
            f"{m.get('instants', 0):>9} {m.get('max_instant_batch', 0):>9} "
            f"{m['rate_recomputes']:>10}"
        )
    return "\n".join(lines)


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_report(report: Mapping, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
