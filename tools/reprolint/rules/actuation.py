"""RL010 — actuation funnel discipline.

Hardware set-points and thread placement are owned by the control
plane: policies *describe* the change they want as an
:class:`~repro.policies.surfaces.Action`, and one funnel
(``repro.policies.actuation.apply_action``) clamps the rail it leaves
to the safe-Vmin table and performs the SLIMpro and CPPC writes, the
migrations and the admissions in fail-safe order. A direct mutator
call anywhere else — ``chip.set_voltage(...)`` in an experiment,
``cppc.request(...)`` in a governor, ``system.migrate_many(...)`` or
``system.admit(...)`` in a daemon — bypasses the mandatory safe-Vmin
clamp (a migration or an arrival that spreads threads over more PMDs
raises the safe Vmin, so the rail must rise first), which is exactly
the class of bug the clamp exists to make impossible.

The check flags any call whose attribute name is a known actuation
mutator (rail writes, per-PMD and chip-wide frequency requests, the
simulator's atomic migration and admission) in ``repro.*`` modules outside
``repro.platform`` — the device models themselves own their mutators.
Inside ``repro.policies`` only the actuation funnel is sanctioned, and
it says so with reasoned suppressions; every other policy module must
return Actions. Test code is exempt (tests drive the devices directly
to characterize them).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..config import (
    ACTUATION_FUNNEL,
    ACTUATION_METHODS,
    PLATFORM_PACKAGE,
)
from ..engine import Finding, Rule, SourceFile


class ActuationFunnel(Rule):
    """RL010: hardware mutators are called only via the actuation funnel."""

    rule_id = "RL010"
    title = "actuation funnel discipline"

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if not self._in_scope(source):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in ACTUATION_METHODS:
                continue
            yield self.finding(
                source,
                node,
                f"direct actuation call `{func.attr}()` outside "
                f"`{PLATFORM_PACKAGE}`; emit an Action and route it "
                f"through `{ACTUATION_FUNNEL}`",
            )

    def _in_scope(self, source: SourceFile) -> bool:
        if source.is_test:
            # Tests characterize the device models directly.
            return False
        module = source.module
        if module == PLATFORM_PACKAGE or module.startswith(
            PLATFORM_PACKAGE + "."
        ):
            # The device models own their mutators.
            return False
        return module == "repro" or module.startswith("repro.")
