"""K1 — simulation-engine scenario suite (kernel/netsim/resources hot loops).

Not a paper figure: this bench guards the *engine* itself.  PR 3 made
fair-share re-allocation incremental (per-component solves instead of
recompute-everything), store queues O(1) (deques + tombstone lazy
cancellation) and message delivery process-free (pooled kernel timers).
The contract is that none of this may change simulated results or the
work the engine does: every scenario in :mod:`repro.perf` reports
machine-independent engine counters and *headline* numbers, which must
equal the committed golden file ``benchmarks/results/BENCH_kernel.json``
(counters exactly, headlines within float tolerance).

Host time is not measured here.  ``perfbench/`` is the benchmark of
record; ``python tools/perf_ab.py REV`` compares the working tree with
revision REV on it, same machine, alternating runs.
"""

from repro.perf import format_report, run_suite

from _common import check_golden, write_report


def test_k1_engine_suite():
    report = run_suite()
    check_golden(report)

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
