"""The engine scenario suite reports only seed-determined values.

A scenario's counters and headline must not depend on what else ran
earlier in the same process, and ``--check`` on a named subset checks
exactly that subset.
"""

from repro.perf import compare_report, run_suite
from repro.perf.__main__ import main

DRILLS = ["d1_library_outage", "d3_catalog_corruption"]


def test_scenarios_do_not_depend_on_what_ran_before():
    alone = run_suite(DRILLS)["scenarios"]
    after = run_suite(["fig8_proxy"] + DRILLS)["scenarios"]
    for name in DRILLS:
        assert after[name] == alone[name], name


def test_compare_report_checks_exactly_the_named_subset():
    report = run_suite(["fabric_sparse"])
    golden = {"scenarios": {
        "fabric_sparse": report["scenarios"]["fabric_sparse"],
        "store_churn": report["scenarios"]["fabric_sparse"],
    }}
    assert compare_report(report, golden, ["fabric_sparse"]) == []
    # a full check still reports a golden scenario the run lacks
    assert compare_report(report, golden) == [
        "store_churn: scenario missing from report"
    ]
    drifted = {"scenarios": {"fabric_sparse": dict(
        report["scenarios"]["fabric_sparse"], instants=1
    )}}
    assert compare_report(report, drifted) == [
        f"fabric_sparse.instants: "
        f"{report['scenarios']['fabric_sparse']['instants']!r} != golden 1"
    ]


def test_cli_rejects_a_golden_without_the_named_scenario(tmp_path, capsys):
    golden = tmp_path / "golden.json"
    golden.write_text('{"schema": 2, "scenarios": {}}')
    assert main(["fabric_sparse", "--check", str(golden)]) == 1
    assert "fabric_sparse: no golden entry" in capsys.readouterr().err
