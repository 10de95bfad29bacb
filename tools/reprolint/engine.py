"""Core of reprolint: source model, rule protocol, suppressions.

The engine is deliberately dependency-free (stdlib ``ast`` only) so it
can run in CI bootstrap steps and pre-commit hooks before the project
itself is installed. Rules come in two shapes:

* **file rules** (:class:`Rule`) — run once per linted file against its
  parsed AST;
* **project rules** (:class:`ProjectRule`) — run once per invocation
  against the repository root (located by its ``pyproject.toml``), for
  cross-file invariants such as the kernel/scalar parity registry.

Findings can be suppressed per line with an inline comment that *must*
carry a reason::

    freq / 1e9  # reprolint: disable=RL001 -- display-only literal

A suppression without the ``-- reason`` part does not silence anything
and is itself reported as RL000.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .config import KNOWN_RULE_IDS

#: Rule id of the meta-rule guarding the suppression syntax itself.
SUPPRESSION_RULE_ID = "RL000"

#: Directory names never descended into while walking lint targets.
_SKIPPED_DIR_NAMES = {
    "__pycache__",
    ".git",
    ".hypothesis",
    ".ruff_cache",
    ".pytest_cache",
    ".vmin-cache",
    "build",
    "dist",
    ".venv",
    "node_modules",
}

#: ``# reprolint: disable=RL001[,RL002][ -- reason]`` (trailing comment).
_SUPPRESSION_RE = re.compile(
    r"#\s*reprolint:\s*disable=(?P<rules>[A-Z0-9,\s]+?)"
    r"(?:\s+--\s+(?P<reason>\S.*))?$"
)


@dataclass(frozen=True)
class Finding:
    """One lint finding at an exact source location.

    ``line`` is 1-based (AST ``lineno``); ``col`` is the 0-based AST
    ``col_offset`` of the offending node, matching what editors and the
    fixture tests assert against.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    @property
    def location(self) -> str:
        """``path:line:col`` display form."""
        return f"{self.path}:{self.line}:{self.col}"

    def as_dict(self) -> Dict[str, object]:
        """JSON-representable form (the ``--format json`` payload)."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class SourceFile:
    """One parsed lint target plus the context rules key off."""

    path: Path
    text: str
    tree: ast.Module
    #: Dotted module guess (``repro.sim.engine`` for
    #: ``src/repro/sim/engine.py``); empty when underivable.
    module: str
    #: Whether the file belongs to the test suite (rules may exempt
    #: test code, e.g. the float-equality ban).
    is_test: bool

    @property
    def lines(self) -> List[str]:
        """Source split into lines (1-based access via ``lines[n-1]``)."""
        return self.text.splitlines()


def derive_module(path: Path) -> str:
    """Best-effort dotted module name of a file path.

    Anything under a ``src`` directory maps to its package path; other
    files map to their path-relative dotted name (without suffixes).
    """
    parts = list(path.resolve().parts)
    if "src" in parts:
        rel = parts[len(parts) - parts[::-1].index("src"):]
    else:
        rel = [path.stem]
    if not rel:
        return ""
    rel = list(rel)
    rel[-1] = Path(rel[-1]).stem
    if rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel)


def derive_is_test(path: Path) -> bool:
    """Whether a path belongs to the test suite."""
    parts = path.resolve().parts
    return "tests" in parts or path.name.startswith("test_")


class Rule:
    """Base class of per-file rules."""

    rule_id: str = ""
    title: str = ""

    def check(self, source: SourceFile) -> Iterator[Finding]:
        """Yield findings for one parsed file."""
        raise NotImplementedError

    def finding(
        self, source: SourceFile, node: ast.AST, message: str
    ) -> Finding:
        """Finding anchored at an AST node of ``source``."""
        return Finding(
            rule_id=self.rule_id,
            path=str(source.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class ProjectRule:
    """Base class of once-per-invocation, cross-file rules."""

    rule_id: str = ""
    title: str = ""

    def check_project(self, root: Path) -> Iterator[Finding]:
        """Yield findings for the project rooted at ``root``."""
        raise NotImplementedError


class ProgramRule:
    """Base class of whole-program rules.

    Program rules run once per invocation against a
    :class:`reprolint.callgraph.Program` — the symbol table, call
    graph and unit/effect summaries of every analyzed file — instead
    of a single file's AST. They are what lets reprolint reason
    *across* function and file boundaries (RL008 units inference,
    RL009 effect propagation).
    """

    rule_id: str = ""
    title: str = ""

    def check_program(self, program: "object") -> Iterator[Finding]:
        """Yield findings for the assembled program model."""
        raise NotImplementedError

    def finding_at(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        """Finding at an explicit location (summaries carry no AST)."""
        return Finding(
            rule_id=self.rule_id,
            path=path,
            line=line,
            col=col,
            message=message,
        )


# -- suppression handling ------------------------------------------------------


def parse_suppressions(
    text: str,
) -> Dict[int, Tuple[frozenset, Optional[str]]]:
    """Per-line suppressions: ``{line: (rule ids, reason or None)}``."""
    table: Dict[int, Tuple[frozenset, Optional[str]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _SUPPRESSION_RE.search(line)
        if match is None:
            continue
        rules = frozenset(
            token.strip()
            for token in match.group("rules").split(",")
            if token.strip()
        )
        table[lineno] = (rules, match.group("reason"))
    return table


def suppression_findings(source: SourceFile) -> List[Finding]:
    """RL000 findings: suppression comments missing their reason.

    A suppression without ``-- reason`` silences nothing and is itself
    a violation, so every waiver in the tree stays auditable.
    """
    found: List[Finding] = []
    for lineno, (rules, reason) in parse_suppressions(source.text).items():
        if reason is None:
            found.append(
                Finding(
                    rule_id=SUPPRESSION_RULE_ID,
                    path=str(source.path),
                    line=lineno,
                    col=0,
                    message=(
                        "suppression without a reason: write "
                        "'# reprolint: disable="
                        + ",".join(sorted(rules))
                        + " -- <why this is safe>'"
                    ),
                )
            )
        unknown = sorted(rules - KNOWN_RULE_IDS)
        if unknown:
            found.append(
                Finding(
                    rule_id=SUPPRESSION_RULE_ID,
                    path=str(source.path),
                    line=lineno,
                    col=0,
                    message=(
                        "suppression names unknown rule id(s) "
                        + ", ".join(unknown)
                        + " — it silences nothing"
                    ),
                )
            )
    return found


def filter_suppressed(
    findings: Iterable[Finding],
    suppressions: Dict[str, Dict[int, Tuple[frozenset, Optional[str]]]],
) -> List[Finding]:
    """Drop findings whose line carries a *reasoned* suppression.

    ``suppressions`` maps file paths to their
    :func:`parse_suppressions` tables. RL000 findings are never
    suppressible.
    """
    kept: List[Finding] = []
    for finding in findings:
        entry = suppressions.get(finding.path, {}).get(finding.line)
        if (
            entry is not None
            and finding.rule_id != SUPPRESSION_RULE_ID
            and finding.rule_id in entry[0]
            and entry[1] is not None
        ):
            continue
        kept.append(finding)
    return sort_findings(kept)


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Deterministic report order: path, line, col, rule."""
    return sorted(
        findings,
        key=lambda f: (f.path, f.line, f.col, f.rule_id),
    )


# -- running -------------------------------------------------------------------


def lint_source(
    source: SourceFile, rules: Sequence[Rule]
) -> List[Finding]:
    """Run file rules over an already-loaded source (no suppressions)."""
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.check(source))
    return sort_findings(findings)


#: What reading, decoding or parsing a broken target can raise.
LOAD_ERRORS = (SyntaxError, UnicodeDecodeError, OSError)


def load_failure_finding(path: Path, exc: Exception) -> Finding:
    """Structured RL000 diagnostic for an unloadable file.

    A file that does not parse — or cannot even be decoded — must
    surface as a finding (file, reason, exit code 1), never as an
    unhandled traceback: pre-commit and CI rely on the structured
    output.
    """
    if isinstance(exc, SyntaxError):
        return Finding(
            rule_id=SUPPRESSION_RULE_ID,
            path=str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"file does not parse: {exc.msg}",
        )
    if isinstance(exc, UnicodeDecodeError):
        return Finding(
            rule_id=SUPPRESSION_RULE_ID,
            path=str(path),
            line=1,
            col=0,
            message=(
                f"file is not valid {exc.encoding}: {exc.reason} "
                f"at byte {exc.start}"
            ),
        )
    return Finding(
        rule_id=SUPPRESSION_RULE_ID,
        path=str(path),
        line=1,
        col=0,
        message=f"file cannot be read: {exc}",
    )


def iter_target_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand lint targets to Python files, deterministically ordered.

    Directory walks skip caches, VCS internals and the lint fixture
    corpus (``tests/lint/fixtures`` holds files that are *meant* to be
    flagged); explicitly listed files are always yielded.
    """
    for target in paths:
        if target.is_file():
            yield target
            continue
        for candidate in sorted(target.rglob("*.py")):
            parts = candidate.parts
            if any(part in _SKIPPED_DIR_NAMES for part in parts):
                continue
            if "fixtures" in parts and "lint" in parts:
                continue
            yield candidate


def find_project_root(paths: Sequence[Path]) -> Optional[Path]:
    """Nearest ancestor of the first target holding a ``pyproject.toml``."""
    for target in paths:
        probe = target.resolve()
        if probe.is_file():
            probe = probe.parent
        for ancestor in (probe, *probe.parents):
            if (ancestor / "pyproject.toml").is_file():
                return ancestor
    return None
