"""Every subpackage imports first, without the package ``__init__``.

The layers import one way: models, then the kernels built on them, then
the campaigns, policies and configurations built on those. A cycle
hides as long as ``repro/__init__.py`` happens to import its members in
a working order, so each check here starts a fresh interpreter whose
``repro`` is a bare module over ``src/repro`` (the package ``__init__``
never runs) and imports one subpackage, or one module that used to sit
on a cycle, before anything else.
"""

import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Imports ``argv[2]`` first, through a ``repro`` stub over ``argv[1]``.
STUB = """
import importlib, sys, types
package = types.ModuleType("repro")
package.__path__ = [sys.argv[1]]
sys.modules["repro"] = package
importlib.import_module(sys.argv[2])
"""

SUBPACKAGES = sorted(
    f"repro.{init.parent.name}" for init in PACKAGE.glob("*/__init__.py")
)
MODULES = (
    "repro.kernels.faults",
    "repro.kernels.vmin",
    "repro.policies.daemon",
    "repro.sim.system",
)


def test_the_glob_finds_the_subpackages():
    assert {"repro.core", "repro.kernels", "repro.sim", "repro.vmin"} <= set(
        SUBPACKAGES
    )


@pytest.mark.parametrize("name", [*SUBPACKAGES, *MODULES])
def test_imports_first(name):
    result = subprocess.run(
        [sys.executable, "-c", STUB, str(PACKAGE), name],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
