"""Analysis driver: file rules + whole-program rules, one path.

:func:`analyze_paths` is the full pipeline behind the CLI:

1. parse every target, run the file rules over it and extract its
   whole-program summary;
2. assemble the :class:`~reprolint.callgraph.Program` from all
   summaries and run the program rules (RL008/RL009) over it;
3. run project rules, apply suppressions and per-path rule scoping,
   and (in ``--changed`` mode) restrict reporting to files changed
   against a git ref plus their transitive dependents.

Every run analyzes every target. :func:`analyze_file` runs the same
per-file step over one file with module/test-context overrides; the
fixture tests use it.
"""

from __future__ import annotations

import ast
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .callgraph import Program, dependents_closure
from .config import rules_disabled_for
from .engine import (
    Finding,
    LOAD_ERRORS,
    ProgramRule,
    ProjectRule,
    Rule,
    SourceFile,
    derive_is_test,
    derive_module,
    filter_suppressed,
    find_project_root,
    iter_target_files,
    lint_source,
    load_failure_finding,
    parse_suppressions,
    sort_findings,
    suppression_findings,
)
from .symbols import FileSummary, build_summary

_Suppressions = Dict[int, Tuple[frozenset, Optional[str]]]


def _rel_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return path.resolve().as_posix()


def _analyze_target(
    path: Path, rules: Sequence[Rule], module: str, is_test: bool
) -> Tuple[List[Finding], FileSummary, _Suppressions]:
    """Parse + run file rules + build the summary for one file.

    A file that cannot be read, decoded or parsed yields one RL000
    finding and an empty summary.
    """
    display = str(path)
    try:
        text = path.read_bytes().decode("utf-8")
        tree = ast.parse(text, filename=display)
    except LOAD_ERRORS as exc:
        stub = FileSummary(path=display, module=module, is_test=is_test)
        return [load_failure_finding(path, exc)], stub, {}
    source = SourceFile(
        path=path,
        text=text,
        tree=tree,
        module=module,
        is_test=is_test,
    )
    findings = lint_source(source, rules) + suppression_findings(source)
    summary = build_summary(tree, display, module, is_test)
    return findings, summary, parse_suppressions(text)


def git_changed_files(root: Path, ref: str) -> Set[str]:
    """Root-relative paths changed vs ``ref`` (plus untracked files).

    Raises :class:`RuntimeError` when git cannot answer (not a
    repository, unknown ref) — the CLI reports that as a usage error.
    """
    changed: Set[str] = set()
    commands = (
        ["git", "-C", str(root), "diff", "--name-only", "-z", ref],
        [
            "git",
            "-C",
            str(root),
            "ls-files",
            "--others",
            "--exclude-standard",
            "-z",
        ],
    )
    for command in commands:
        proc = subprocess.run(
            command, capture_output=True, text=True, check=False
        )
        if proc.returncode != 0:
            raise RuntimeError(
                proc.stderr.strip()
                or f"git failed: {' '.join(command)}"
            )
        changed.update(
            name for name in proc.stdout.split("\0") if name
        )
    return changed


def analyze_paths(
    paths: Sequence[Path],
    rules: Sequence[Rule],
    project_rules: Sequence[ProjectRule] = (),
    program_rules: Sequence[ProgramRule] = (),
    root: Optional[Path] = None,
    changed_ref: Optional[str] = None,
) -> List[Finding]:
    """Run the full analysis pipeline over ``paths``.

    ``changed_ref`` restricts *reporting* (not analysis) to files
    changed against the git ref plus their transitive dependents.
    """
    if root is None:
        root = find_project_root(paths) or Path.cwd()
    root = root.resolve()

    findings: List[Finding] = []
    suppressions: Dict[str, _Suppressions] = {}
    summaries: Dict[str, FileSummary] = {}
    rel_by_display: Dict[str, str] = {}
    for path in iter_target_files(paths):
        display = str(path)
        rel_by_display[display] = _rel_path(path, root)
        file_findings, summary, table = _analyze_target(
            path, rules, derive_module(path), derive_is_test(path)
        )
        findings.extend(file_findings)
        summaries[display] = summary
        suppressions[display] = table

    program = Program(summaries)
    for program_rule in program_rules:
        findings.extend(program_rule.check_program(program))

    for project_rule in project_rules:
        for finding in project_rule.check_project(root):
            if finding.path not in suppressions:
                try:
                    text = Path(finding.path).read_text(encoding="utf-8")
                except OSError:
                    text = ""
                suppressions[finding.path] = parse_suppressions(text)
            findings.append(finding)

    kept = filter_suppressed(findings, suppressions)
    kept = [
        f
        for f in kept
        if f.rule_id
        not in rules_disabled_for(rel_by_display.get(f.path, f.path))
    ]

    if changed_ref is not None:
        changed_rels = git_changed_files(root, changed_ref)
        deps_by_rel = {
            rel_by_display.get(path, path): {
                rel_by_display.get(dep, dep) for dep in deps
            }
            for path, deps in program.file_dependencies().items()
        }
        report_set = changed_rels | dependents_closure(
            deps_by_rel, changed_rels
        )
        kept = [
            f
            for f in kept
            if rel_by_display.get(f.path, _rel_path(Path(f.path), root))
            in report_set
        ]

    return sort_findings(kept)


def analyze_file(
    path: Path,
    rules: Sequence[Rule] = (),
    program_rules: Sequence[ProgramRule] = (),
    module: Optional[str] = None,
    is_test: Optional[bool] = None,
) -> List[Finding]:
    """Single-file analysis with module/test-context overrides.

    ``module``/``is_test`` override the path-based derivation: the
    fixture tests use them to analyze a fixture file *as if* it lived
    at a given spot in the package, and the program model then
    contains exactly that file.
    """
    if module is None:
        module = derive_module(path)
    if is_test is None:
        is_test = derive_is_test(path)
    findings, summary, table = _analyze_target(
        path, rules, module, is_test
    )
    program = Program({str(path): summary})
    for rule in program_rules:
        findings.extend(rule.check_program(program))
    return filter_suppressed(findings, {str(path): table})
