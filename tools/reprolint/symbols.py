"""Per-file analysis summaries for the whole-program passes.

A :class:`FileSummary` is everything the interprocedural rules (RL008
units inference, RL009 effect propagation) need to know about one file
once its AST is gone: its functions and methods, their parameter/return
unit signatures, the call sites they contain (with the units of every
argument), their direct effect sets, and the modules they import.

Units are carried as small plain-dict **terms**:

* ``{"k": "u", "u": "mV", "s": "strong"|"weak", "why": [...]}`` — a
  concrete unit with its provenance chain;
* ``{"k": "c", "f": "repro.vmin.model.VminModel.evaluate", "why": []}``
  — the return unit of a (possibly not-yet-resolved) callee;
* ``{"k": "m"|"d", "a": term, "b": term}`` — a ``*``/``/`` composition;
* ``None`` — unknown.

Terms are *built* here from local evidence (``typing.Annotated`` unit
aliases, ``repro.units`` converter calls, ``*_mv``-style name suffixes)
and *resolved* across function boundaries by
:mod:`reprolint.unitflow`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .astutil import decorator_name, dotted_name, name_tokens
from .config import (
    BUILTIN_UNIT_ALIASES,
    CACHE_KEY_DECORATOR,
    DIMENSIONLESS,
    GLOBAL_NP_RANDOM_FUNCS,
    GLOBAL_RANDOM_FUNCS,
    MAGIC_FACTORS,
    SUFFIX_UNITS,
    UNIT_CONVERTERS,
    WALL_CLOCK_CALLS,
)

Term = Optional[Dict[str, Any]]

#: Builtins that return their (first) argument unchanged, unit-wise.
_PASSTHROUGH_BUILTINS = frozenset({"float", "int", "abs", "round"})

#: Builtins whose arguments must share a unit and whose result keeps it.
_UNIFYING_BUILTINS = frozenset({"min", "max"})


def unit_term(unit: str, strength: str, why: List[str]) -> Dict[str, Any]:
    """A concrete-unit term."""
    return {"k": "u", "u": unit, "s": strength, "why": why}


def call_term(callee: str, why: List[str]) -> Dict[str, Any]:
    """A term standing for the return unit of ``callee``."""
    return {"k": "c", "f": callee, "why": why}


# -- summary dataclasses -------------------------------------------------------


@dataclass
class ParamInfo:
    """One parameter's declared or heuristic unit."""

    name: str
    unit: Optional[str] = None
    #: "annotation" (strong) or "suffix" (weak); "" when no unit.
    source: str = ""


@dataclass
class CallArg:
    """One argument of a call site: slot, unit term and location."""

    #: Positional index as int, or the keyword name.
    slot: object
    term: Term
    line: int
    col: int


@dataclass
class CallSite:
    """One call expression, resolved as far as local evidence allows."""

    #: The call target as written (``units.mv_to_v``, ``self.audit``).
    display: str
    #: Absolute resolved qualname, ``?.attr`` for a method call on an
    #: object of unknown type, or ``""`` when unresolvable.
    callee: str
    line: int
    col: int
    args: List[CallArg] = field(default_factory=list)
    #: Whether the call supplies the receiver implicitly (``self.m()``
    #: or ``obj.m()``): positional args then map to params[1:].
    instance_call: bool = False


@dataclass
class AddObligation:
    """Additive/comparison use whose operand units must agree."""

    op: str
    left: Term
    right: Term
    line: int
    col: int


@dataclass
class EffectInfo:
    """One direct effect occurrence inside a function body."""

    #: "wall_clock" | "env_read" | "global_stmt" | "unseeded_rng"
    #: | "global_rng"
    kind: str
    detail: str
    line: int
    col: int


@dataclass
class FunctionInfo:
    """Unit/effect signature of one function or method."""

    qualname: str
    name: str
    line: int
    col: int
    is_method: bool
    is_cache_key: bool
    params: List[ParamInfo] = field(default_factory=list)
    #: Declared return unit (from an annotation), if any.
    return_unit: Optional[str] = None
    #: Terms of every ``return`` expression (capped).
    return_terms: List[Term] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    adds: List[AddObligation] = field(default_factory=list)
    effects: List[EffectInfo] = field(default_factory=list)


@dataclass
class FileSummary:
    """Everything the whole-program passes need from one file."""

    path: str
    module: str
    is_test: bool
    #: Absolute module names this file imports (dependency edges).
    dep_modules: List[str] = field(default_factory=list)
    #: ``Name = Annotated[..., Unit("mV")]`` aliases declared here.
    unit_aliases: Dict[str, str] = field(default_factory=dict)
    functions: List[FunctionInfo] = field(default_factory=list)


# -- import resolution ---------------------------------------------------------


class ModuleImports:
    """Local alias maps with relative imports resolved to absolute."""

    def __init__(self, tree: ast.Module, module: str):
        #: alias -> absolute module ("np" -> "numpy").
        self.modules: Dict[str, str] = {}
        #: alias -> absolute "module.object" for from-imports.
        self.objects: Dict[str, str] = {}
        #: every absolute module named by an import.
        self.dep_modules: List[str] = []
        package_parts = module.split(".")[:-1] if module else []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    alias = item.asname or item.name.split(".")[0]
                    self.modules[alias] = item.name
                    self.dep_modules.append(item.name)
            elif isinstance(node, ast.ImportFrom):
                origin = self._absolute_origin(node, package_parts)
                if origin is None:
                    continue
                self.dep_modules.append(origin)
                for item in node.names:
                    if item.name == "*":
                        continue
                    self.objects[item.asname or item.name] = (
                        f"{origin}.{item.name}"
                    )

    @staticmethod
    def _absolute_origin(
        node: ast.ImportFrom, package_parts: List[str]
    ) -> Optional[str]:
        if node.level == 0:
            return node.module
        if node.level > len(package_parts):
            return node.module  # best effort outside the package
        base = package_parts[: len(package_parts) - node.level + 1]
        if node.module:
            return ".".join(base + [node.module])
        return ".".join(base) if base else None


# -- annotation handling -------------------------------------------------------


def _inline_annotated_unit(node: ast.AST) -> Optional[str]:
    """Unit of an inline ``Annotated[T, Unit("mV")]`` expression."""
    if not isinstance(node, ast.Subscript):
        return None
    head = dotted_name(node.value)
    if head is None or head.split(".")[-1] != "Annotated":
        return None
    elts = (
        node.slice.elts if isinstance(node.slice, ast.Tuple) else []
    )
    for elt in elts[1:]:
        if (
            isinstance(elt, ast.Call)
            and decorator_name(elt.func) == "Unit"
            and elt.args
            and isinstance(elt.args[0], ast.Constant)
            and isinstance(elt.args[0].value, str)
        ):
            return elt.args[0].value
    return None


class _AnnotationResolver:
    """Resolves annotation expressions to declared units."""

    def __init__(
        self, imports: ModuleImports, local_aliases: Dict[str, str]
    ):
        self.imports = imports
        self.local_aliases = local_aliases

    def unit_of(self, node: Optional[ast.AST]) -> Optional[str]:
        if node is None:
            return None
        inline = _inline_annotated_unit(node)
        if inline is not None:
            return inline
        if isinstance(node, ast.Subscript):
            # Optional[Millivolts] and friends: look inside.
            head = dotted_name(node.value)
            if head is not None and head.split(".")[-1] == "Optional":
                return self.unit_of(node.slice)
            return None
        name = dotted_name(node)
        if name is None:
            return None
        parts = name.split(".")
        if len(parts) == 1:
            if parts[0] in self.local_aliases:
                return self.local_aliases[parts[0]]
            origin = self.imports.objects.get(parts[0])
            if origin is not None:
                return BUILTIN_UNIT_ALIASES.get(origin)
            return None
        head_module = self.imports.modules.get(parts[0])
        if head_module is not None:
            return BUILTIN_UNIT_ALIASES.get(
                ".".join([head_module] + parts[1:])
            )
        return None


def suffix_unit(identifier: str) -> Optional[str]:
    """Unit implied by an identifier's trailing snake_case token.

    ALL-CAPS names (module constants like ``GHZ``) are exempt: their
    token is the unit *name*, not a claim about the value's unit.
    Single-character names (``v``, ``s`` as loop variables) are too
    generic to carry unit evidence and never match.
    """
    if identifier.isupper() or len(identifier) <= 1:
        return None
    tokens = name_tokens(identifier)
    if not tokens:
        return None
    return SUFFIX_UNITS.get(tokens[-1])


def module_unit_aliases(tree: ast.Module) -> Dict[str, str]:
    """``Name = Annotated[..., Unit("mV")]`` assignments in a module."""
    aliases: Dict[str, str] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        unit = _inline_annotated_unit(node.value)
        if unit is not None:
            aliases[target.id] = unit
    return aliases


# -- effect detection ----------------------------------------------------------


def _call_origin(
    imports: ModuleImports, func: ast.AST
) -> Optional[Tuple[str, str]]:
    """(origin module, function name) of a call target, if resolvable."""
    name = dotted_name(func)
    if name is None:
        return None
    parts = name.split(".")
    head, rest = parts[0], parts[1:]
    origin = imports.modules.get(head)
    if origin is not None and rest:
        return ".".join([origin] + rest[:-1]), rest[-1]
    imported = imports.objects.get(head)
    if imported is not None:
        base, leaf = imported.rsplit(".", 1)
        if not rest:
            return base, leaf
        return imported, rest[-1]
    return None


def _walk_own_body(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body, excluding nested function/lambda bodies."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def direct_effects(
    func: ast.AST, imports: ModuleImports
) -> List[EffectInfo]:
    """Direct (non-transitive) effects inside one function body."""
    effects: List[EffectInfo] = []

    def add(node: ast.AST, kind: str, detail: str) -> None:
        effects.append(
            EffectInfo(
                kind=kind,
                detail=detail,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
            )
        )

    for node in _walk_own_body(func):
        if isinstance(node, ast.Global):
            add(
                node,
                "global_stmt",
                f"declares `global {', '.join(node.names)}`",
            )
        elif isinstance(node, ast.Call):
            origin = _call_origin(imports, node.func)
            if origin is None:
                continue
            module, leaf = origin
            if (module.split(".")[-1], leaf) in WALL_CLOCK_CALLS:
                add(node, "wall_clock", f"reads `{module}.{leaf}()`")
            elif module == "os" and leaf == "getenv":
                add(node, "env_read", "reads `os.getenv()`")
            elif module == "os.environ" and leaf == "get":
                add(node, "env_read", "reads `os.environ.get()`")
            elif (
                module in ("random", "numpy.random")
                and leaf == "default_rng"
                and not node.args
            ):
                add(node, "unseeded_rng", "constructs unseeded RNG")
            elif module == "random" and leaf == "Random" and not node.args:
                add(node, "unseeded_rng", "constructs unseeded RNG")
            elif module == "random" and leaf in GLOBAL_RANDOM_FUNCS:
                add(
                    node,
                    "global_rng",
                    f"draws from global `random.{leaf}()`",
                )
            elif (
                module == "numpy.random"
                and leaf in GLOBAL_NP_RANDOM_FUNCS
            ):
                add(
                    node,
                    "global_rng",
                    f"draws from global `np.random.{leaf}()`",
                )
        elif isinstance(node, (ast.Attribute, ast.Subscript)):
            target = (
                node.value if isinstance(node, ast.Subscript) else node
            )
            name = dotted_name(target)
            if name is None:
                continue
            parts = name.split(".")
            head = imports.modules.get(parts[0]) or parts[0]
            resolved = ".".join([head] + parts[1:])
            if resolved == "os.environ" or resolved.startswith(
                "os.environ."
            ):
                add(node, "env_read", "reads `os.environ`")
            elif imports.objects.get(parts[0]) == "os.environ":
                add(node, "env_read", "reads `os.environ`")
    return effects


# -- the summary builder -------------------------------------------------------


class _FunctionAnalyzer:
    """Builds one :class:`FunctionInfo` from a function's AST."""

    def __init__(
        self,
        func: ast.FunctionDef,
        qualname: str,
        module: str,
        imports: ModuleImports,
        annotations: _AnnotationResolver,
        local_functions: Dict[str, str],
        class_name: Optional[str],
        class_methods: Dict[str, str],
    ):
        self.func = func
        self.module = module
        self.imports = imports
        self.annotations = annotations
        self.local_functions = local_functions
        self.class_name = class_name
        self.class_methods = class_methods
        self.info = FunctionInfo(
            qualname=qualname,
            name=func.name,
            line=func.lineno,
            col=func.col_offset,
            is_method=class_name is not None,
            is_cache_key=any(
                decorator_name(dec) == CACHE_KEY_DECORATOR
                for dec in func.decorator_list
            ),
        )
        self.env: Dict[str, Term] = {}

    def run(self) -> FunctionInfo:
        self._collect_params()
        self._seed_env_from_params()
        self._build_env(self.func.body)
        self._collect_uses()
        self.info.return_unit = self.annotations.unit_of(
            self.func.returns
        )
        self.info.effects = direct_effects(self.func, self.imports)
        return self.info

    # -- parameters ------------------------------------------------------------

    def _all_args(self) -> List[ast.arg]:
        args = self.func.args
        return [*args.posonlyargs, *args.args, *args.kwonlyargs]

    def _collect_params(self) -> None:
        for index, arg in enumerate(self._all_args()):
            if index == 0 and self.info.is_method and arg.arg in (
                "self",
                "cls",
            ):
                self.info.params.append(ParamInfo(name=arg.arg))
                continue
            unit = self.annotations.unit_of(arg.annotation)
            if unit is not None:
                self.info.params.append(
                    ParamInfo(arg.arg, unit, "annotation")
                )
                continue
            heuristic = suffix_unit(arg.arg)
            self.info.params.append(
                ParamInfo(
                    arg.arg,
                    heuristic,
                    "suffix" if heuristic is not None else "",
                )
            )

    def _seed_env_from_params(self) -> None:
        for param in self.info.params:
            if param.unit is None:
                continue
            why = (
                [
                    f"parameter `{param.name}` of "
                    f"`{self.info.qualname}` is annotated "
                    f"{param.unit}"
                ]
                if param.source == "annotation"
                else [
                    f"parameter `{param.name}` carries the unit "
                    f"suffix ({param.unit})"
                ]
            )
            strength = (
                "strong" if param.source == "annotation" else "weak"
            )
            self.env[param.name] = unit_term(param.unit, strength, why)

    # -- local environment -----------------------------------------------------

    def _build_env(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    self._bind(target.id, stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                unit = self.annotations.unit_of(stmt.annotation)
                if unit is not None:
                    self.env.setdefault(
                        stmt.target.id,
                        unit_term(
                            unit,
                            "strong",
                            [
                                f"`{stmt.target.id}` is annotated "
                                f"{unit}"
                            ],
                        ),
                    )
                elif stmt.value is not None:
                    self._bind(stmt.target.id, stmt.value)
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            for child_body in _stmt_bodies(stmt):
                self._build_env(child_body)

    def _bind(self, name: str, value: ast.expr) -> None:
        if name in self.env:
            return
        term = self.term_of(value)
        if term is not None:
            self.env[name] = _with_step(
                term, f"assigned to `{name}`"
            )

    # -- use collection --------------------------------------------------------

    def _collect_uses(self) -> None:
        cap = 0
        for node in _walk_own_body(self.func):
            if isinstance(node, ast.Call):
                site = self._call_site(node)
                if site is not None:
                    self.info.calls.append(site)
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                self._add_obligation(
                    "+" if isinstance(node.op, ast.Add) else "-",
                    node.left,
                    node.right,
                    node,
                )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                self._add_obligation(
                    "+=" if isinstance(node.op, ast.Add) else "-=",
                    node.target,
                    node.value,
                    node,
                )
            elif (
                isinstance(node, ast.Compare)
                and len(node.comparators) == 1
            ):
                self._add_obligation(
                    "compare", node.left, node.comparators[0], node
                )
            elif isinstance(node, ast.Return) and node.value is not None:
                if cap < 8:
                    cap += 1
                    self.info.return_terms.append(
                        self.term_of(node.value)
                    )

    def _add_obligation(
        self, op: str, left: ast.expr, right: ast.expr, node: ast.AST
    ) -> None:
        left_term = self.term_of(left)
        right_term = self.term_of(right)
        if left_term is None or right_term is None:
            return
        self.info.adds.append(
            AddObligation(
                op=op,
                left=left_term,
                right=right_term,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
            )
        )

    # -- call resolution -------------------------------------------------------

    def _resolve_callee(
        self, call: ast.Call
    ) -> Optional[Tuple[str, str, bool]]:
        """(display, resolved-or-?, instance_call) of a call target."""
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if len(parts) == 1:
            name = parts[0]
            if name in self.local_functions:
                return dotted, self.local_functions[name], False
            origin = self.imports.objects.get(name)
            if origin is not None:
                return dotted, origin, False
            if self.class_name is not None and name in self.class_methods:
                return dotted, self.class_methods[name], False
            return dotted, "", False
        head = parts[0]
        if head in ("self", "cls") and self.class_name is not None:
            if len(parts) == 2 and parts[1] in self.class_methods:
                return dotted, self.class_methods[parts[1]], True
            return dotted, "?." + parts[-1], True
        head_module = self.imports.modules.get(head)
        if head_module is not None:
            return dotted, ".".join([head_module] + parts[1:]), False
        origin = self.imports.objects.get(head)
        if origin is not None:
            return dotted, ".".join([origin] + parts[1:]), False
        # A method call on an object of unknown type: resolvable at
        # program level when the method name is globally unique.
        return dotted, "?." + parts[-1], True

    def _call_site(self, call: ast.Call) -> Optional[CallSite]:
        resolved = self._resolve_callee(call)
        if resolved is None:
            return None
        display, callee, instance_call = resolved
        if not callee:
            return None
        args: List[CallArg] = []
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            args.append(
                CallArg(
                    slot=index,
                    term=self.term_of(arg),
                    line=arg.lineno,
                    col=arg.col_offset,
                )
            )
        for keyword in call.keywords:
            if keyword.arg is None:
                continue
            args.append(
                CallArg(
                    slot=keyword.arg,
                    term=self.term_of(keyword.value),
                    line=keyword.value.lineno,
                    col=keyword.value.col_offset,
                )
            )
        return CallSite(
            display=display,
            callee=callee,
            line=call.lineno,
            col=call.col_offset,
            args=args,
            instance_call=instance_call,
        )

    # -- expression terms ------------------------------------------------------

    def term_of(self, node: ast.expr) -> Term:
        """Unit term of an expression, from local evidence only."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float)
            ):
                return None
            return unit_term(DIMENSIONLESS, "strong", [])
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            unit = suffix_unit(node.id)
            if unit is not None:
                return unit_term(
                    unit,
                    "weak",
                    [f"`{node.id}` carries the unit suffix ({unit})"],
                )
            return None
        if isinstance(node, ast.Attribute):
            unit = suffix_unit(node.attr)
            if unit is not None:
                return unit_term(
                    unit,
                    "weak",
                    [
                        f"`{dotted_name(node) or node.attr}` carries "
                        f"the unit suffix ({unit})"
                    ],
                )
            return None
        if isinstance(node, ast.Subscript):
            return self.term_of(node.value)
        if isinstance(node, ast.UnaryOp):
            return self.term_of(node.operand)
        if isinstance(node, ast.IfExp):
            return self.term_of(node.body) or self.term_of(node.orelse)
        if isinstance(node, ast.Call):
            return self._call_return_term(node)
        if isinstance(node, ast.BinOp):
            return self._binop_term(node)
        return None

    def _binop_term(self, node: ast.BinOp) -> Term:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            left = self.term_of(node.left)
            return left if left is not None else self.term_of(node.right)
        if not isinstance(node.op, (ast.Mult, ast.Div)):
            return None
        left = self.term_of(node.left)
        right = self.term_of(node.right)
        # Multiplying/dividing by a magic power of ten silently
        # re-scales (RL001's domain); the result unit is unknowable.
        for operand in (node.left, node.right):
            if (
                isinstance(operand, ast.Constant)
                and isinstance(operand.value, (int, float))
                and not isinstance(operand.value, bool)
                and float(operand.value) in MAGIC_FACTORS
            ):
                return None
        if left is None or right is None:
            return None
        kind = "m" if isinstance(node.op, ast.Mult) else "d"
        return {"k": kind, "a": left, "b": right}

    def _call_return_term(self, node: ast.Call) -> Term:
        name = dotted_name(node.func)
        if name is not None:
            leaf = name.split(".")[-1]
            if leaf in _PASSTHROUGH_BUILTINS and len(name.split(".")) == 1:
                if node.args:
                    return self.term_of(node.args[0])
                return None
            if leaf in _UNIFYING_BUILTINS and len(name.split(".")) == 1:
                for arg in node.args:
                    term = self.term_of(arg)
                    if term is not None:
                        return term
                return None
        resolved = self._resolve_callee(node)
        if resolved is None:
            return None
        display, callee, _ = resolved
        if not callee:
            return None
        converter = UNIT_CONVERTERS.get(callee)
        if converter is not None:
            _, return_unit = converter
            if return_unit is None:
                return None
            return unit_term(
                return_unit,
                "strong",
                [
                    f"`{display}(...)` returns {return_unit} "
                    "(repro.units converter)"
                ],
            )
        return call_term(callee, [f"returned by `{display}(...)`"])


def _stmt_bodies(stmt: ast.stmt) -> List[List[ast.stmt]]:
    """Nested statement lists of a control-flow statement."""
    bodies: List[List[ast.stmt]] = []
    for attr in ("body", "orelse", "finalbody"):
        block = getattr(stmt, attr, None)
        if isinstance(block, list) and block and isinstance(
            block[0], ast.stmt
        ):
            bodies.append(block)
    for handler in getattr(stmt, "handlers", []):
        bodies.append(handler.body)
    return bodies


def _with_step(term: Term, step: str) -> Term:
    if term is None:
        return None
    if term.get("k") in ("u", "c"):
        copied = dict(term)
        copied["why"] = list(term.get("why", [])) + [step]
        return copied
    return term


def build_summary(
    tree: ast.Module,
    path: str,
    module: str,
    is_test: bool,
) -> FileSummary:
    """Build the whole-program summary of one parsed file."""
    imports = ModuleImports(tree, module)
    unit_aliases = module_unit_aliases(tree)
    annotations = _AnnotationResolver(imports, unit_aliases)
    summary = FileSummary(
        path=path,
        module=module,
        is_test=is_test,
        dep_modules=sorted(set(imports.dep_modules)),
        unit_aliases=unit_aliases,
    )
    local_functions = {
        node.name: f"{module}.{node.name}" if module else node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            summary.functions.append(
                _FunctionAnalyzer(
                    node,
                    local_functions[node.name],
                    module,
                    imports,
                    annotations,
                    local_functions,
                    None,
                    {},
                ).run()
            )
        elif isinstance(node, ast.ClassDef):
            prefix = f"{module}.{node.name}" if module else node.name
            methods = {
                item.name: f"{prefix}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                summary.functions.append(
                    _FunctionAnalyzer(
                        item,
                        methods[item.name],
                        module,
                        imports,
                        annotations,
                        local_functions,
                        node.name,
                        methods,
                    ).run()
                )
    return summary
