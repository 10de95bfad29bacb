"""Command-line entry point: ``python -m reprolint [paths...]``.

Exit codes: 0 clean, 1 findings reported, 2 usage/target errors.
Formats: ``text`` (human, default), ``json`` (machine), ``github``
(workflow annotation commands understood by GitHub Actions), ``sarif``
(SARIF 2.1.0 for code-scanning upload).

Every run analyzes the whole target set. ``--changed[=REF]`` restricts
*reporting* to files changed against a git ref plus their transitive
dependents — the pre-commit configuration runs in this mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .driver import analyze_paths
from .engine import Finding, SUPPRESSION_RULE_ID
from .rules import ALL_RULES, PROGRAM_RULES, PROJECT_RULES, RULE_BY_ID
from .sarif import render_sarif

#: Default lint targets when none are given on the command line.
DEFAULT_TARGETS = ("src", "tests")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "AST-based invariant checks for this repository: units "
            "discipline, determinism, kernel/scalar parity, cache-key "
            "purity, hot-path hygiene, and whole-program units/effect "
            "inference."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories to lint "
            f"(default: {' '.join(DEFAULT_TARGETS)})"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help=(
            "report findings only for files changed vs the git ref "
            "(default REF: HEAD) and their transitive dependents"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        print(f"{SUPPRESSION_RULE_ID}  suppression hygiene (built-in)")
        for rule_id in sorted(RULE_BY_ID):
            print(f"{rule_id}  {RULE_BY_ID[rule_id].title}")
        return 0

    rules = list(ALL_RULES)
    project_rules = list(PROJECT_RULES)
    program_rules = list(PROGRAM_RULES)
    if options.select is not None:
        selected = {
            token.strip().upper()
            for token in options.select.split(",")
            if token.strip()
        }
        if not selected:
            parser.error("--select names no rule id")
        unknown = selected - set(RULE_BY_ID) - {SUPPRESSION_RULE_ID}
        if unknown:
            parser.error(
                "unknown rule id(s): " + ", ".join(sorted(unknown))
            )
        rules = [r for r in rules if r.rule_id in selected]
        project_rules = [
            r for r in project_rules if r.rule_id in selected
        ]
        program_rules = [
            r for r in program_rules if r.rule_id in selected
        ]

    raw_paths = list(options.paths) or list(DEFAULT_TARGETS)
    targets: List[Path] = []
    for raw in raw_paths:
        path = Path(raw)
        if not path.exists():
            print(
                f"reprolint: no such file or directory: {raw}",
                file=sys.stderr,
            )
            return 2
        targets.append(path)

    try:
        findings = analyze_paths(
            targets,
            rules,
            project_rules,
            program_rules,
            changed_ref=options.changed,
        )
    except RuntimeError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2
    report(findings, options.format)
    return 1 if findings else 0


def report(findings: Sequence[Finding], fmt: str) -> None:
    if fmt == "json":
        print(
            json.dumps(
                [finding.as_dict() for finding in findings], indent=2
            )
        )
        return
    if fmt == "sarif":
        catalogue = [
            (SUPPRESSION_RULE_ID, "suppression hygiene"),
            *(
                (rule_id, RULE_BY_ID[rule_id].title)
                for rule_id in sorted(RULE_BY_ID)
            ),
        ]
        print(json.dumps(render_sarif(findings, catalogue), indent=2))
        return
    for finding in findings:
        if fmt == "github":
            print(_github_annotation(finding))
        else:
            print(
                f"{finding.location}: {finding.rule_id} "
                f"{finding.message}"
            )
    if fmt == "text":
        count = len(findings)
        if count:
            noun = "finding" if count == 1 else "findings"
            print(f"reprolint: {count} {noun}")
        else:
            print("reprolint: clean")


def _github_annotation(finding: Finding) -> str:
    """One ``::error`` workflow command per finding.

    GitHub parses properties up to the ``::`` terminator, so property
    values must %-escape ``%``, ``\\r``, ``\\n`` (and ``:``/``,`` inside
    properties).
    """
    message = _escape_data(finding.message)
    return (
        f"::error file={_escape_property(finding.path)},"
        f"line={finding.line},col={finding.col + 1},"
        f"title={_escape_property('reprolint ' + finding.rule_id)}"
        f"::{message}"
    )


def _escape_data(value: str) -> str:
    return (
        value.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
    )


def _escape_property(value: str) -> str:
    return (
        _escape_data(value).replace(":", "%3A").replace(",", "%2C")
    )
