"""Engine scenario suite (``python -m repro.perf``).

Each *scenario* is a deterministic, seeded simulation slice that
stresses one engine hot path (fabric fair-share reallocation,
store/queue churn, mpisim message delivery, the metadata plane, the
disaster drills, or a reduced paper-figure workload).  The runner
reports, per scenario, only values fixed by the seed and parameters:

* ``events`` — kernel events popped,
* ``peak_queue_len`` — event-queue high-water mark,
* ``instants`` / ``max_instant_batch`` — same-instant dispatch cohorts
  and the largest one (``events / instants`` is the mean batch size the
  cohort drain amortises generator-resume overhead over),
* ``rate_recomputes`` — fair-share solver invocations on all fabrics,
* ``headline`` — *simulated* outputs (bytes moved, job durations, end
  times).

:func:`compare_report` checks all of them against
``benchmarks/results/BENCH_kernel.json`` (written by ``--out``), so an
engine change that alters any simulated result or the work the engine
does to produce it is caught mechanically.  Host time is not measured
here: ``perfbench/`` is the benchmark of record, and
``tools/perf_ab.py`` compares two revisions on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from repro.sim import Environment

__all__ = [
    "COUNTERS",
    "SCENARIOS",
    "ScenarioOutcome",
    "compare_report",
    "measure",
    "run_scenario",
    "run_suite",
    "scenario",
]

#: JSON schema version of the emitted report
SCHEMA = 2

#: relative tolerance for headline comparisons — simulated quantities are
#: deterministic, but summation order may legally shift by float ulps when
#: the engine's internal event sequencing changes
HEADLINE_RTOL = 1e-9

#: engine counters reported per scenario and compared exactly
COUNTERS = ("events", "instants", "max_instant_batch", "peak_queue_len",
            "rate_recomputes")


@dataclass
class ScenarioOutcome:
    """What a scenario function returns to the runner."""

    env: Environment
    #: simulated, machine-independent result numbers (the golden values)
    headline: dict[str, float]
    #: fabrics whose ``rate_recomputes`` counters to aggregate
    fabrics: tuple = ()
    notes: str = ""


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


def measure(out: ScenarioOutcome) -> dict:
    """The report entry for one finished scenario: counters and headline."""
    env = out.env
    return {
        "events": env.events_processed,
        "instants": env.instants,
        "max_instant_batch": env.max_instant_batch,
        "peak_queue_len": env.peak_queue_len,
        "rate_recomputes": int(sum(f.rate_recomputes for f in out.fabrics)),
        "headline": out.headline,
    }


def run_scenario(name: str) -> dict:
    """Run one scenario and return its report entry."""
    return measure(SCENARIOS[name]())


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


def compare_report(
    report: Mapping,
    golden: Mapping,
    names: Optional[Iterable[str]] = None,
    rtol: float = HEADLINE_RTOL,
) -> list[str]:
    """Differences between a report and a golden report.

    Checks the scenarios in *names*, or every golden scenario when
    *names* is None: a full run that lacks one is drift (a scenario was
    silently dropped).  Engine counters must match exactly, headline
    values within *rtol*.  Returns human-readable drift descriptions
    (empty = no drift).
    """
    drift: list[str] = []
    gold_scenarios = golden.get("scenarios", {})
    new_scenarios = report.get("scenarios", {})
    for name in gold_scenarios if names is None else names:
        gold = gold_scenarios.get(name)
        mine = new_scenarios.get(name)
        if gold is None:
            drift.append(f"{name}: no golden entry")
            continue
        if mine is None:
            drift.append(f"{name}: scenario missing from report")
            continue
        for key in COUNTERS:
            if mine.get(key) != gold.get(key):
                drift.append(
                    f"{name}.{key}: {mine.get(key)!r} != golden {gold.get(key)!r}"
                )
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
    """Human-readable table of a suite report's engine counters."""
    lines = [
        f"{'scenario':<22} {'events':>8} {'instants':>9} {'max batch':>9} "
        f"{'peak q':>7} {'recomputes':>10}",
    ]
    for name, m in report.get("scenarios", {}).items():
        lines.append(
            f"{name:<22} {m['events']:>8} {m['instants']:>9} "
            f"{m['max_instant_batch']:>9} {m['peak_queue_len']:>7} "
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
