"""The repository must lint clean under its own invariant checker.

This is the self-application gate: any regression that reintroduces a
magic unit conversion, an unseeded RNG, a slot-less hot dataclass, a
registry drift, an impure key producer — or, via the whole-program
rules, an interprocedural unit mismatch or a transitively impure
cache key — fails this test before CI's ``lint-invariants`` job ever
sees it.
"""

from __future__ import annotations

from pathlib import Path

from reprolint.driver import analyze_paths
from reprolint.rules import ALL_RULES, PROGRAM_RULES, PROJECT_RULES

REPO_ROOT = Path(__file__).resolve().parents[2]


def _formatted(findings):
    return "\n".join(
        f"{f.location}: {f.rule_id} {f.message}" for f in findings
    )


def test_repository_is_reprolint_clean():
    findings = analyze_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tests"],
        ALL_RULES,
        PROJECT_RULES,
        PROGRAM_RULES,
        root=REPO_ROOT,
    )
    assert not findings, f"reprolint findings:\n{_formatted(findings)}"


def test_tools_tree_is_reprolint_clean():
    # The linter must also hold itself to its own rules — including
    # the whole-program passes.
    findings = analyze_paths(
        [REPO_ROOT / "tools"],
        ALL_RULES,
        program_rules=PROGRAM_RULES,
        root=REPO_ROOT,
    )
    assert not findings, f"reprolint findings:\n{_formatted(findings)}"
