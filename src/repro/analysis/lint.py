"""Command-line linter: ``python -m repro.analysis.lint src/``.

Exit status 0 when clean, 1 when findings remain after suppressions,
2 when the linter itself crashed (or on usage errors).  ``--format
json`` emits a machine-readable report (CI archives it); ``--format
sarif`` emits SARIF 2.1.0 for GitHub code-scanning annotations;
``--select RA001,RA003`` restricts the rule set.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.analysis.core import LintResult, Rule, run_lint
from repro.analysis.rules_determinism import DeterminismRule
from repro.analysis.rules_health import SilentFaultSwallowRule
from repro.analysis.rules_protocol import PayloadSchemaRule, ProtocolRule
from repro.analysis.rules_queues import (
    BlockingReceiveRule,
    QueueComplexityRule,
    QueueDisciplineRule,
)
from repro.analysis.rules_races import (
    SharedMutableStateRule,
    UnboundedServiceWaitRule,
    UnorderedZeroDelayRule,
)
from repro.analysis.rules_recovery import JournalIntentRule

__all__ = ["default_rules", "main", "to_sarif"]


def default_rules() -> list[Rule]:
    return [
        DeterminismRule(),
        ProtocolRule(),
        QueueDisciplineRule(),
        PayloadSchemaRule(),
        BlockingReceiveRule(),
        QueueComplexityRule(),
        JournalIntentRule(),
        SharedMutableStateRule(),
        UnboundedServiceWaitRule(),
        UnorderedZeroDelayRule(),
        SilentFaultSwallowRule(),
    ]


def to_sarif(result: LintResult, rules: Sequence[Rule]) -> dict:
    """SARIF 2.1.0 log of a lint run (GitHub code-scanning format)."""
    rule_meta = [
        {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {
                "text": (rule.__doc__ or rule.name).strip().splitlines()[0]
            },
        }
        for rule in rules
    ]
    results = [
        {
            "ruleId": f.code,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {
                            "startLine": f.line,
                            "startColumn": f.col + 1,
                        },
                    }
                }
            ],
        }
        for f in result.findings
    ]
    return {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
        "master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analysis",
                        "informationUri": "https://example.invalid/repro",
                        "rules": rule_meta,
                    }
                },
                "results": results,
            }
        ],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Static checks for repro's determinism, protocol, "
        "queue-discipline, crash-journal, schedule-safety and "
        "fault-visibility invariants (RA001-RA010, RA012).",
    )
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run, e.g. RA001,RA003",
    )
    args = parser.parse_args(argv)

    rules = default_rules()
    select = None
    if args.select:
        select = [code.strip() for code in args.select.split(",") if code.strip()]
        known = {rule.code for rule in rules}
        unknown = set(select) - known
        if unknown:
            parser.error(f"unknown rule codes: {', '.join(sorted(unknown))}")

    try:
        result: LintResult = run_lint(args.paths, rules, select=select)
    except Exception as exc:  # noqa: BLE001 - exit-code contract: crash = 2
        print(
            f"linter crashed: {type(exc).__name__}: {exc}", file=sys.stderr
        )
        return 2

    if args.format == "json":
        print(result.to_json())
    elif args.format == "sarif":
        print(json.dumps(to_sarif(result, rules), indent=2))
    else:
        for finding in result.findings:
            print(finding.format())
        summary = (
            f"{len(result.findings)} finding(s), {result.suppressed} "
            f"suppressed, {result.files_checked} file(s) checked"
        )
        print(("" if not result.findings else "\n") + summary)
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
