"""Runtime validation of the kernel/scalar parity registry.

``reprolint`` rule RL003 checks :mod:`repro.kernels.parity` against the
source statically; :func:`verify_parity` resolves every name the
registry holds by importing it, so a registry that drifts from the
importable truth fails here too.
"""

from __future__ import annotations

import importlib
from typing import List, Tuple

from repro.kernels.parity import PARITY, SCALAR_ONLY


def _resolve(dotted: str) -> object:
    """Import the object named by ``dotted`` (module.attr[.attr])."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:split])
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        obj: object = module
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            break
        return obj
    raise LookupError(f"cannot resolve {dotted!r}")


def verify_parity() -> List[Tuple[str, str]]:
    """Runtime check of the registry against importable reality.

    Returns the ``(scalar, kernel)`` pairs of :data:`PARITY` after
    asserting every name on either side of the registry resolves to a
    callable and that no name sits in both tables. Raises
    :class:`LookupError` on a dangling name, :class:`ValueError` on a
    structural violation.
    """
    overlap = sorted(set(PARITY) & set(SCALAR_ONLY))
    if overlap:
        raise ValueError(
            f"names in both PARITY and SCALAR_ONLY: {overlap}"
        )
    for name, reason in SCALAR_ONLY.items():
        if not reason.strip():
            raise ValueError(f"SCALAR_ONLY[{name!r}] has no reason")
        if not callable(_resolve(name)):
            raise ValueError(f"SCALAR_ONLY key {name!r} not callable")
    pairs: List[Tuple[str, str]] = []
    for scalar, kernel in PARITY.items():
        if not callable(_resolve(scalar)):
            raise ValueError(f"PARITY key {scalar!r} not callable")
        if not callable(_resolve(kernel)):
            raise ValueError(f"PARITY value {kernel!r} not callable")
        pairs.append((scalar, kernel))
    return pairs


def test_verify_parity_resolves_every_entry():
    pairs = verify_parity()
    assert len(pairs) == len(PARITY)
    assert dict(pairs) == PARITY


def test_tables_are_disjoint_and_reasoned():
    assert not set(PARITY) & set(SCALAR_ONLY)
    for name, reason in SCALAR_ONLY.items():
        assert reason.strip(), name


def test_known_mirrors_present():
    # The load-bearing mirrors the sweep tests rely on.
    assert (
        PARITY["repro.vmin.model.VminModel.evaluate"]
        == "repro.kernels.vmin.evaluate_grid"
    )
    assert (
        PARITY["repro.power.model.PowerModel.chip_power"]
        == "repro.kernels.power.chip_power_grid"
    )
