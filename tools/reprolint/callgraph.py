"""Project symbol table and call graph over file summaries.

A :class:`Program` is the whole-program view the interprocedural rules
run against: every :class:`~reprolint.symbols.FileSummary` keyed by
repo-relative path, a symbol table of function qualnames, an index of
method names for unique-name resolution of ``obj.method(...)`` calls,
and the call/dependency edges derived from them.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from .symbols import CallSite, FileSummary, FunctionInfo


class Program:
    """Whole-program model assembled from per-file summaries."""

    def __init__(self, summaries: Dict[str, FileSummary]):
        #: repo-relative path -> summary.
        self.summaries = summaries
        #: qualname -> (summary, function).
        self.functions: Dict[str, Tuple[FileSummary, FunctionInfo]] = {}
        #: method/function name -> list of qualnames carrying it.
        self.by_name: Dict[str, List[str]] = {}
        #: module -> path, for import-edge resolution.
        self.module_paths: Dict[str, str] = {}
        for path in sorted(summaries):
            summary = summaries[path]
            if summary.module:
                self.module_paths[summary.module] = path
            for func in summary.functions:
                self.functions[func.qualname] = (summary, func)
                self.by_name.setdefault(func.name, []).append(
                    func.qualname
                )

    # -- call resolution -------------------------------------------------------

    def resolve_callee(
        self, call: CallSite
    ) -> Optional[Tuple[FileSummary, FunctionInfo]]:
        """Summary/function of a call site's target, if known.

        ``?.name`` targets (method calls on objects of unknown type)
        resolve only when exactly one function in the program carries
        the name — ambiguity means no edge, never a guess.
        """
        return self.resolve_qualname(call.callee)

    def resolve_qualname(
        self, callee: str
    ) -> Optional[Tuple[FileSummary, FunctionInfo]]:
        """Resolve a summary-recorded callee qualname."""
        if not callee:
            return None
        if callee.startswith("?."):
            candidates = self.by_name.get(callee[2:], [])
            if len(candidates) != 1:
                return None
            return self.functions[candidates[0]]
        return self.functions.get(callee)

    # -- call graph ------------------------------------------------------------

    def call_edges(
        self, func: FunctionInfo
    ) -> Iterator[Tuple[CallSite, FileSummary, FunctionInfo]]:
        """Resolved outgoing edges of one function."""
        for call in func.calls:
            resolved = self.resolve_callee(call)
            if resolved is not None:
                yield call, resolved[0], resolved[1]

    # -- file dependency graph -------------------------------------------------

    def file_dependencies(self) -> Dict[str, Set[str]]:
        """path -> set of paths it depends on (imports or calls into)."""
        deps: Dict[str, Set[str]] = {path: set() for path in self.summaries}
        for path, summary in self.summaries.items():
            for module in summary.dep_modules:
                target = self._module_file(module)
                if target is not None and target != path:
                    deps[path].add(target)
            for func in summary.functions:
                for call in func.calls:
                    resolved = self.resolve_callee(call)
                    if resolved is not None and resolved[0].path != path:
                        deps[path].add(resolved[0].path)
        return deps

    def _module_file(self, module: str) -> Optional[str]:
        """Path providing ``module``, walking up dotted prefixes.

        ``from repro.vmin.model import X`` depends on
        ``src/repro/vmin/model.py``; importing a name from a package
        ``__init__`` resolves to the package module itself.
        """
        probe = module
        while probe:
            path = self.module_paths.get(probe)
            if path is not None:
                return path
            if "." not in probe:
                return None
            probe = probe.rsplit(".", 1)[0]
        return None


def dependents_closure(
    deps: Dict[str, Set[str]], changed: Set[str]
) -> Set[str]:
    """Transitive dependents of ``changed`` (excluding ``changed``).

    ``deps`` maps each path to the paths it depends on; the closure
    walks the reversed edges, so editing a callee reaches every file
    whose analysis could observe the edit (``--changed`` reports them).
    """
    reverse: Dict[str, Set[str]] = {}
    for path, targets in deps.items():
        for target in targets:
            reverse.setdefault(target, set()).add(path)
    out: Set[str] = set()
    frontier = list(changed)
    while frontier:
        current = frontier.pop()
        for dependent in reverse.get(current, ()):
            if dependent not in out and dependent not in changed:
                out.add(dependent)
                frontier.append(dependent)
    return out
