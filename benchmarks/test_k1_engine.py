"""K1 — simulation-engine scenario suite (kernel/netsim/resources hot loops).

Not a paper figure: this bench guards the *engine* itself.  PR 3 made
fair-share re-allocation incremental (per-component solves instead of
recompute-everything), store queues O(1) (deques + tombstone lazy
cancellation) and message delivery process-free (pooled kernel timers).
The contract is that none of this may change simulated results or the
work the engine does: every scenario in :mod:`repro.perf` reports
machine-independent engine counters and *headline* numbers, which must
equal the committed golden file ``benchmarks/results/BENCH_kernel.json``
(counters exactly, headlines within float tolerance).  K1 runs the seven
engine scenarios; the metadata, scheduler and drill entries are checked
by M1, S1 and the drills bench, so each golden entry is compared once.

Host time is not measured here.  ``perfbench/`` is the benchmark of
record; ``python tools/perf_ab.py REV`` compares the working tree with
revision REV on it, same machine, alternating runs.
"""

import json

from repro.perf import SCENARIOS, drills, format_report, run_suite
from repro.perf import metadata, scenarios  # noqa: F401 - register their scenarios

from _common import GOLDEN, check_golden, write_report

#: the engine scenarios K1 checks against the golden
ENGINE_SCENARIOS = (
    "fabric_churn", "fabric_sparse", "fig10_proxy", "fig8_proxy",
    "a1_proxy", "store_churn", "mpisim_fanout",
)
#: golden entries the bench that runs them checks: M1 (m1-m3), S1
#: (s1_scheduler) and the drills bench (d1-d3)
CHECKED_ELSEWHERE = (
    "m1_index_scan", "m2_recall_sort", "m3_reconcile", "s1_scheduler",
    *drills.DRILLS,
)


def test_every_golden_scenario_is_checked_by_exactly_one_bench():
    golden = json.loads(GOLDEN.read_text())["scenarios"]
    # a scenario added without a golden entry, or a golden entry whose
    # scenario is gone, would silently go unchecked
    assert set(SCENARIOS) == set(golden)
    owned = ENGINE_SCENARIOS + CHECKED_ELSEWHERE
    assert sorted(owned) == sorted(golden)


def test_k1_engine_suite():
    report = run_suite(ENGINE_SCENARIOS)
    check_golden(report, ENGINE_SCENARIOS)

    text = (
        "K1  engine scenario suite (counters and headlines checked vs "
        "golden)\n" + format_report(report)
    )
    print("\n" + text)
    write_report("K1", text)

    # fabric-heavy scenarios keep their solver counts down (0 solves
    # when nothing shares a link)
    assert report["scenarios"]["fabric_sparse"]["rate_recomputes"] == 0
    assert report["scenarios"]["store_churn"]["rate_recomputes"] == 0
