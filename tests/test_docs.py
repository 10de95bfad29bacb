"""The docs name only things that exist.

README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md point readers at
files, test functions and modules in backticks. Every such reference
must resolve:

* a repo path under ``src/``, ``tests/``, ``benchmarks/``, ``tools/``
  or ``examples/`` (a glob must match something), with an optional
  ``::name`` — a pytest-style node id resolved against the file's
  function and class definitions;
* a dotted ``repro.*`` name — the longest prefix that is a module, then
  attributes of it (a trailing ``()`` is ignored).
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
DOCS += sorted((ROOT / "docs").glob("*.md"))
PATH_ROOTS = ("src/", "tests/", "benchmarks/", "tools/", "examples/")
_TICKED = re.compile(r"`([^`\n]+)`")


def references() -> Iterator[Tuple[str, str]]:
    """(doc name, reference) for every backticked path or module."""
    for doc in DOCS:
        for match in _TICKED.finditer(doc.read_text()):
            ref = match.group(1).strip()
            if ref.startswith(PATH_ROOTS) or ref.startswith("repro."):
                yield doc.name, ref


def _defined(tree: ast.AST, names: List[str]) -> bool:
    """Whether the nested function/class path ``names`` is defined."""
    scope = getattr(tree, "body", [])
    for name in names:
        found = next(
            (
                node
                for node in scope
                if isinstance(
                    node,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                )
                and node.name == name
            ),
            None,
        )
        if found is None:
            return False
        scope = found.body
    return True


def missing_path(ref: str) -> Optional[str]:
    """Why a repo-path reference does not resolve, or ``None``."""
    path, _, node_id = ref.partition("::")
    if any(ch in path for ch in "*?["):
        if not list(ROOT.glob(path)):
            return "glob matches nothing"
        return None
    target = ROOT / path
    if not target.exists():
        return "no such path"
    if node_id:
        names = re.sub(r"\[.*\]$", "", node_id).split("::")
        if not _defined(ast.parse(target.read_text()), names):
            return f"{path} defines no {node_id}"
    return None


def _is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:  # a parent is not a package
        return False


def missing_module(ref: str) -> Optional[str]:
    """Why a dotted ``repro.*`` reference does not resolve, or ``None``."""
    parts = ref.removesuffix("()").split(".")
    split = len(parts)
    while split > 1 and not _is_module(".".join(parts[:split])):
        split -= 1
    name = ".".join(parts[:split])
    obj = importlib.import_module(name)
    for attr in parts[split:]:
        if not hasattr(obj, attr):
            return f"{name} has no attribute {attr}"
        obj = getattr(obj, attr)
    return None


def missing(ref: str) -> Optional[str]:
    """Why a reference does not resolve, or ``None`` when it does."""
    if ref.startswith("repro."):
        return missing_module(ref)
    return missing_path(ref)


def test_docs_reference_only_existing_paths_and_modules():
    broken = sorted(
        {
            f"{doc}: `{ref}`: {why}"
            for doc, ref in references()
            if (why := missing(ref)) is not None
        }
    )
    assert not broken, "\n".join(broken)


def test_the_scan_sees_every_kind_of_reference():
    refs = {ref for _, ref in references()}
    assert any("::" in ref for ref in refs)
    assert any("*" in ref for ref in refs)
    assert any(ref.startswith("repro.") for ref in refs)
    assert any(ref.startswith("benchmarks/") for ref in refs)


@pytest.mark.parametrize(
    "ref, why",
    [
        ("benchmarks/test_ablation_period.py", "no such path"),
        (
            "benchmarks/test_ablation_benches.py::test_ablation_period",
            "defines no",
        ),
        ("tests/sim/test_engine.py::TestNoSuchClass::test_x", "defines no"),
        ("src/repro/platform/defs/*.yaml", "glob matches nothing"),
        ("repro.no_such_module", "repro has no attribute"),
        ("repro.sim.system.NoSuchClass", "has no attribute"),
    ],
)
def test_broken_references_are_reported(ref, why):
    assert why in (missing(ref) or "")


@pytest.mark.parametrize(
    "ref",
    [
        "benchmarks/test_ablation_benches.py::test_ablation_monitor_period",
        "tests/sim/test_engine.py",
        "src/repro/platform/defs/*.toml",
        "tests/lint/",
        "repro.kernels.parity.verify_parity()",
        "repro.sim.system.ServerSystem",
    ],
)
def test_existing_references_resolve(ref):
    assert missing(ref) is None
