"""Which functions of ``repro`` no entry point reaches.

Run from the repository root::

    PYTHONPATH=src python tools/reachability.py

Each entry point in :func:`entry_points` (``run-all`` on every chip,
cold, warm and under ``--policy ed2p``; ``policy compare`` of every
registered policy on three chips; every ``platform``, ``policy`` and
``telemetry`` subcommand; ``repro list``; ``repro report``; the example
scripts) runs in a fresh interpreter under :func:`sys.setprofile`, with
its cache dirs and manifests in a temporary directory. Every code
object of the ``repro`` package that a run enters is recorded, and the
union is matched against every ``def`` that :mod:`ast` finds in the
package (keyed by file and first line: the first decorator's, else the
``def``'s).

A ``def`` no run enters must be listed in ``reachability_allow.txt``
next to this file, one ``repro/path.py::Qual.name  category`` per line,
the category saying why it stays (see :data:`CATEGORIES`). The trace
runs ``--jobs 1``, so the pool workers' functions are outside it.

Exit status: 0 when every unreached ``def`` is allowlisted, 1 when one
is not or when an allowlist line names a ``def`` that no longer exists,
2 when an entry point fails.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import os
import runpy
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

TOOLS = Path(__file__).resolve().parent
EXAMPLES = TOOLS.parent / "examples"
ALLOWLIST = TOOLS / "reachability_allow.txt"

#: Why an unreached ``def`` may stay in ``src/``.
CATEGORIES = {
    "pool-worker": "runs only in a pool worker (the trace runs --jobs 1)",
    "error-path": "runs only when an input or the environment is broken",
    "dunder": "a protocol method Python calls implicitly",
    "result-accessor": "reads an experiment result; a test or benchmark "
    "states a claim through it",
    "observation": "reads Observation, the policy surface, or the "
    "system state behind it",
    "perfbench-hook": "named by perfbench/probe.py's HOOKS",
    "units-api": "part of repro.units",
    "telemetry-api": "part of the telemetry registry API",
    "spec-factory": "xgene2_spec/xgene3_spec, the tests' chip factories",
    "policy-default": "a Policy default that subclasses override",
}

CHIPS = ("xgene2", "xgene3", "xgene3-xl")


class Def(NamedTuple):
    path: str  # relative to the package's parent, e.g. repro/cli.py
    qualname: str
    first: int  # first decorator line, else the def line
    last: int


class Entry(NamedTuple):
    label: str
    kind: str  # "cli" or "example"
    argv: Tuple[str, ...]
    returncode: int = 0


def package_dir() -> Path:
    """The ``repro`` package directory, found without importing it (an
    import before the hook is installed would run untraced)."""
    spec = importlib.util.find_spec("repro")
    if spec is None or not spec.submodule_search_locations:
        raise SystemExit("reachability: repro is not on PYTHONPATH")
    return Path(list(spec.submodule_search_locations)[0]).resolve()


def _defs_in(tree: ast.AST, rel: str) -> Iterator[Def]:
    def walk(node: ast.AST, prefix: str) -> Iterator[Def]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                lines = [child.lineno] + [
                    d.lineno for d in child.decorator_list
                ]
                yield Def(rel, qualname, min(lines), child.end_lineno or 0)
                yield from walk(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def all_defs(root: Path) -> List[Def]:
    """Every ``def`` under ``root``, a package directory."""
    defs: List[Def] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root.parent).as_posix()
        defs.extend(_defs_in(ast.parse(path.read_text()), rel))
    return defs


def entry_points(work: Path) -> List[Entry]:
    """The traced runs; every file they write goes under ``work``."""
    from repro.policies.registry import policy_keys

    cold = {chip: str(work / f"cache-{chip}") for chip in CHIPS}
    manifest = {
        name: str(work / f"{name}.json")
        for name in ("default", "xgene2-cold", "xgene2-warm", "xgene3-xl")
    }
    runs = [
        Entry("run-all", "cli", (
            "run-all", "--jobs", "1", "--cache-dir", str(work / "cache"),
            "--summary-json", manifest["default"],
        )),
        Entry("run-all xgene2 cold", "cli", (
            "run-all", "--jobs", "1", "--platform", "xgene2",
            "--cache-dir", cold["xgene2"],
            "--summary-json", manifest["xgene2-cold"],
        )),
        Entry("run-all xgene2 warm", "cli", (
            "run-all", "--jobs", "1", "--platform", "xgene2",
            "--cache-dir", cold["xgene2"],
            "--summary-json", manifest["xgene2-warm"],
        )),
        Entry("run-all xgene3", "cli", (
            "run-all", "--jobs", "1", "--platform", "xgene3",
        )),
        Entry("run-all xgene3-xl cold", "cli", (
            "run-all", "--jobs", "1", "--platform", "xgene3-xl",
            "--cache-dir", cold["xgene3-xl"],
            "--summary-json", manifest["xgene3-xl"],
        )),
        Entry("run-all xgene3-xl ed2p warm", "cli", (
            "run-all", "--jobs", "1", "--platform", "xgene3-xl",
            "--policy", "ed2p", "--cache-dir", cold["xgene3-xl"],
        )),
        Entry("list", "cli", ("list",)),
        Entry("report", "cli", ("report",)),
    ]
    keys = tuple(policy_keys())
    for chip in CHIPS:
        runs.append(Entry(f"policy compare {chip}", "cli", (
            "policy", "compare", "--duration", "900", "--platform", chip,
            *keys,
        )))
        runs.append(Entry(f"platform show {chip}", "cli", (
            "platform", "show", chip,
        )))
    runs += [
        Entry("platform list", "cli", ("platform", "list")),
        Entry("platform validate", "cli", ("platform", "validate")),
        Entry("policy list", "cli", ("policy", "list")),
        Entry("policy show ed2p xgene3-xl", "cli", (
            "policy", "show", "ed2p", "--platform", "xgene3-xl",
        )),
    ]
    runs += [
        Entry(f"policy show {key}", "cli", ("policy", "show", key))
        for key in keys
    ]
    warm, cold_m = manifest["xgene2-warm"], manifest["xgene2-cold"]
    runs += [
        Entry("telemetry check", "cli", ("telemetry", "check", cold_m)),
        Entry("telemetry check --min-hit-rate", "cli", (
            "telemetry", "check", warm, "--min-hit-rate", "0.5",
        )),
        Entry("telemetry summarize", "cli", (
            "telemetry", "summarize", manifest["xgene3-xl"],
        )),
        # Cache counters differ between a cold and a warm run.
        Entry("telemetry diff", "cli", (
            "telemetry", "diff", cold_m, warm,
        ), returncode=1),
        Entry("telemetry dump", "cli", (
            "telemetry", "dump", "--strip-timing", manifest["default"],
        )),
    ]
    examples = [
        ("quickstart.py",),
        ("characterize_chip.py", "xgene2"),
        ("server_daemon_demo.py", "xgene2", "400"),
        ("allocation_explorer.py", "CG", "4"),
        ("allocation_explorer.py", "namd", "4"),
        ("undervolting_study.py", "CG", "32"),
        ("phase_tracking_demo.py", "setup-then-crunch"),
        ("power_capping_demo.py", "30"),
        ("vmin_prediction_study.py", "xgene2"),
        ("custom_platform.py",),
    ]
    runs += [
        Entry(" ".join(argv), "example", (str(EXAMPLES / argv[0]),) + argv[1:])
        for argv in examples
    ]
    return runs


def trace(record: str, kind: str, argv: List[str]) -> int:
    """Run one entry point, appending each ``repro`` code object it
    enters (file and first line) to ``record``."""
    prefix = str(package_dir()) + os.sep
    seen: Set[object] = set()
    fd = os.open(record, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)

    def hook(frame, event, arg):  # type: ignore[no-untyped-def]
        if event != "call":
            return
        code = frame.f_code
        if code in seen:
            return
        seen.add(code)
        if code.co_filename.startswith(prefix):
            line = f"{code.co_filename}\t{code.co_firstlineno}\n"
            os.write(fd, line.encode())

    sys.setprofile(hook)
    try:
        if kind == "example":
            sys.argv = list(argv)
            sys.path.insert(0, str(Path(argv[0]).parent))
            runpy.run_path(argv[0], run_name="__main__")
            return 0
        from repro.cli import main

        return main(list(argv))
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        return 1
    finally:
        sys.setprofile(None)


def read_allowlist(path: Path) -> Dict[Tuple[str, str], str]:
    allowed: Dict[Tuple[str, str], str] = {}
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, _, category = line.partition(" ")
        category = category.strip()
        where, sep, qualname = name.partition("::")
        if not sep or category not in CATEGORIES:
            raise SystemExit(
                f"{path.name}:{number}: expected 'path::qualname category' "
                f"with a category of {sorted(CATEGORIES)}, got {raw!r}"
            )
        allowed[(where, qualname)] = category
    return allowed


def span_lines(defs: List[Def]) -> int:
    """Source lines the ``defs`` cover, nested ones counted once."""
    covered: Set[Tuple[str, int]] = set()
    for d in defs:
        covered.update((d.path, n) for n in range(d.first, d.last + 1))
    return len(covered)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # One traced entry point, in the fresh interpreter main() starts.
    parser.add_argument("--trace", nargs=argparse.REMAINDER,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trace:
        record, kind, *rest = args.trace
        return trace(record, kind, rest)

    root = package_dir()
    defs = all_defs(root)
    entered: Set[Tuple[str, int]] = set()
    # The runs start in a temporary directory: a relative PYTHONPATH
    # would no longer find the package there.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root.parent), env.get("PYTHONPATH")])
    )
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        work = Path(tmp)
        record = work / "entered.txt"
        for entry in entry_points(work):
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, __file__, "--trace", str(record),
                 entry.kind, *entry.argv],
                cwd=work, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            print(f"  {time.perf_counter() - started:6.1f} s  {entry.label}",
                  file=sys.stderr)
            if done.returncode != entry.returncode:
                print(f"reachability: {entry.label} exited "
                      f"{done.returncode}, expected {entry.returncode}:\n"
                      f"{done.stderr}", file=sys.stderr)
                return 2
        for line in record.read_text().splitlines():
            filename, first = line.split("\t")
            rel = Path(filename).relative_to(root.parent).as_posix()
            entered.add((rel, int(first)))

    unreached = [d for d in defs if (d.path, d.first) not in entered]
    allowed = read_allowlist(ALLOWLIST)
    names = {(d.path, d.qualname) for d in defs}
    missing = [d for d in unreached if (d.path, d.qualname) not in allowed]
    stale = sorted(key for key in allowed if key not in names)
    print(f"reachability: {len(unreached)} of {len(defs)} defs unreached "
          f"({span_lines(unreached)} lines), {len(missing)} not allowlisted")
    for d in missing:
        print(f"{d.path}::{d.qualname}  not allowlisted "
              f"({d.last - d.first + 1} lines)")
    for where, qualname in stale:
        print(f"{ALLOWLIST.name}: {where}::{qualname} names no def")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
