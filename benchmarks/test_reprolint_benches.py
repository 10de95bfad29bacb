"""Reprolint bench: the whole-program sweep of a synthetic project.

Every run parses and analyzes every target, so the cold sweep is the
only cost there is. ``test_reprolint_cold_analysis`` contributes its
row to the committed regression baseline; the synthetic project keeps
the number from drifting with the repository's size.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
TOOLS_DIR = REPO_ROOT / "tools"
if str(TOOLS_DIR) not in sys.path:
    sys.path.insert(0, str(TOOLS_DIR))

from reprolint.driver import analyze_paths  # noqa: E402
from reprolint.rules import ALL_RULES, PROGRAM_RULES  # noqa: E402

#: Modules in the synthetic project (each imports its predecessor, so
#: the dependency chain is as deep as the project is wide).
N_MODULES = 40

#: Extra helper functions per module, so per-file analysis (parse,
#: summary build, unit flow) dominates the sweep.
HELPERS_PER_MODULE = 12

_MODULE_BODY = '''\
"""Synthetic module {i} for the reprolint benches."""
{imports}


def supply_{i}_mv(margin_mv: float) -> float:
    rail_mv = 850.0 + margin_mv
    return rail_mv


def step_{i}(margin_mv: float) -> float:
    local_mv = supply_{i}_mv(margin_mv)
    {call}
    return local_mv
'''

_HELPER_BODY = '''\


def helper_{i}_{j}(level_mv: float, scale: float) -> float:
    biased_mv = level_mv + {j}.0
    shifted_mv = biased_mv - scale * {j}.0
    total_mv = biased_mv + shifted_mv
    return supply_{i}_mv(total_mv)
'''


def _make_project(root: Path) -> Path:
    """A package of ``N_MODULES`` files with a linear import chain."""
    project = root / "proj"
    project.mkdir()
    (project / "pyproject.toml").write_text("[project]\nname = 'proj'\n")
    for i in range(N_MODULES):
        if i == 0:
            imports, call = "", "pass"
        else:
            imports = f"from mod_{i - 1} import step_{i - 1}"
            call = f"step_{i - 1}(local_mv)"
        body = _MODULE_BODY.format(i=i, imports=imports, call=call)
        body += "".join(
            _HELPER_BODY.format(i=i, j=j)
            for j in range(HELPERS_PER_MODULE)
        )
        (project / f"mod_{i}.py").write_text(body)
    return project


def test_reprolint_cold_analysis(benchmark, tmp_path):
    """Full whole-program sweep, every file analyzed every round."""
    project = _make_project(tmp_path)

    findings = benchmark.pedantic(
        lambda: analyze_paths(
            [project],
            ALL_RULES,
            program_rules=PROGRAM_RULES,
            root=project,
        ),
        rounds=3,
    )
    assert findings == []
