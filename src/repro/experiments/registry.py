"""Explicit experiment registry: the catalogue the orchestrator schedules.

Each paper artefact regenerator is described by one
:class:`ExperimentEntry`: its CLI name, the paper artefact it
reproduces, the module that implements it (imported lazily — this
module stays import-light so CLI startup does not pay for the whole
experiments package), its inputs and a relative cost hint used by the
scheduler to start long-running experiments first.

Every experiment module exposes a uniform renderer::

    def render(platform, duration_s, seed, policy, **inputs) -> Result

returning the module's result object, whose ``format()`` is exactly the
text the CLI prints for that experiment. ``platform`` arrives resolved
to the entry's ``default_platform`` when the run names none, and
``inputs`` holds one keyword per entry of ``depends``, named after the
experiment: its result. Modules with several artefacts (``tables34``)
use a distinct ``render_name`` per entry.

A ``depends`` entry is an experiment name, optionally with a platform
in the form of node labels (``"fig14@xgene2"``). :func:`topological_order`
turns a request into :class:`Node` s, one per (experiment, platform):
an input runs on the platform its ``depends`` entry names, else on its
dependent's, and a request and an input with the same key are one node,
so a replay or campaign that several experiments take runs once per
run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError

#: Root package of the experiment modules.
_PACKAGE = "repro.experiments"


@dataclass(frozen=True)
class ExperimentEntry:
    """One schedulable experiment in the registry."""

    #: CLI/registry name, e.g. ``fig7``.
    name: str
    #: Paper artefact the experiment regenerates.
    artefact: str
    #: Module implementing the experiment, relative to ``repro.experiments``.
    module: str
    #: Experiments whose results this one takes as inputs, each
    #: ``name`` (on this experiment's platform) or ``name@platform``.
    #: They always run first, requested or not, and each result reaches
    #: the renderer as the keyword argument of its name.
    depends: Tuple[str, ...] = ()
    #: Relative cost hint in seconds; the scheduler launches costly
    #: experiments first to minimize the parallel makespan.
    cost: float = 0.1
    #: Paper platform, or ``None`` for platform-independent artefacts.
    default_platform: Optional[str] = None
    #: Name of the module's render function.
    render_name: str = "render"

    @property
    def module_path(self) -> str:
        """Fully qualified dotted module path."""
        return f"{_PACKAGE}.{self.module}"


#: The registry, in canonical (paper) order. Output of ``run-all`` is
#: merged in this order regardless of parallel completion order.
REGISTRY: Tuple[ExperimentEntry, ...] = (
    ExperimentEntry(
        name="table1",
        artefact="Table I — platform parameters",
        module="table1",
        cost=0.01,
    ),
    ExperimentEntry(
        name="fig3",
        artefact="Fig. 3 — safe-Vmin campaign",
        module="fig3_vmin_characterization",
        cost=0.05,
        default_platform="xgene2",
    ),
    ExperimentEntry(
        name="fig4",
        artefact="Fig. 4 — single/two-core regions",
        module="fig4_core_variation",
        cost=0.05,
        default_platform="xgene2",
    ),
    ExperimentEntry(
        name="fig5",
        artefact="Fig. 5 — failure probability curves",
        module="fig5_pfail",
        cost=0.02,
        default_platform="xgene3",
    ),
    ExperimentEntry(
        name="fig6",
        artefact="Fig. 6 — droop detections per bin",
        module="fig6_droops",
        cost=0.02,
        default_platform="xgene3",
    ),
    ExperimentEntry(
        name="fig7",
        artefact="Fig. 7 — clustered vs spreaded energy",
        module="fig7_allocation_energy",
        cost=0.02,
        default_platform="xgene2",
    ),
    ExperimentEntry(
        name="fig8",
        artefact="Fig. 8 — full-chip contention ratios",
        module="fig8_contention",
        cost=0.02,
        default_platform="xgene3",
    ),
    ExperimentEntry(
        name="fig9",
        artefact="Fig. 9 — L3C access rates + threshold",
        module="fig9_l3c_rates",
        cost=0.02,
        default_platform="xgene3",
    ),
    ExperimentEntry(
        name="fig10",
        artefact="Fig. 10 — Vmin factor decomposition",
        module="fig10_factors",
        cost=0.02,
        default_platform="xgene2",
    ),
    ExperimentEntry(
        name="fig11",
        artefact="Fig. 11 — energy across configurations",
        module="fig11_energy",
        cost=0.02,
        default_platform="xgene2",
    ),
    ExperimentEntry(
        name="fig12",
        artefact="Fig. 12 — ED2P across configurations",
        module="fig12_ed2p",
        depends=("fig11",),
        cost=0.02,
        default_platform="xgene2",
    ),
    ExperimentEntry(
        name="table2",
        artefact="Table II — droop classes and safe Vmin",
        module="table2",
        cost=0.05,
        default_platform="xgene3",
    ),
    ExperimentEntry(
        name="fig13",
        artefact="Fig. 13 — traced daemon decision flow",
        module="fig13_flow",
        cost=0.1,
        default_platform="xgene2",
    ),
    ExperimentEntry(
        name="fig14",
        artefact="Fig. 14 — Baseline vs Optimal power",
        module="fig14_power_timeline",
        cost=0.7,
        default_platform="xgene3",
    ),
    ExperimentEntry(
        name="fig15",
        artefact="Fig. 15 — load and process classes",
        module="fig15_load_timeline",
        depends=("fig14",),
        cost=0.01,
        default_platform="xgene3",
    ),
    ExperimentEntry(
        name="table3",
        artefact=(
            "Table III — X-Gene 2 "  # reprolint: disable=RL007 -- paper caption
            "four-configuration evaluation"
        ),
        module="tables34",
        depends=("fig14@xgene2",),
        cost=0.2,
        render_name="render_table3",
    ),
    ExperimentEntry(
        name="table4",
        artefact=(
            "Table IV — X-Gene 3 "  # reprolint: disable=RL007 -- paper caption
            "four-configuration evaluation"
        ),
        module="tables34",
        depends=("fig14@xgene3",),
        cost=0.5,
        render_name="render_table4",
    ),
    ExperimentEntry(
        name="variation",
        artefact="extension: chip-to-chip variation & golden-die risk",
        module="variation_study",
        cost=2.7,
        default_platform="xgene2",
    ),
    ExperimentEntry(
        name="thermal",
        artefact="extension: junction temperature, leakage, thermal guard",
        module="thermal_study",
        cost=5.0,
        default_platform="xgene3",
    ),
    ExperimentEntry(
        name="report",
        artefact="EXPERIMENTS.md-style reproduction report",
        module="report",
        depends=("fig3@xgene3", "fig4@xgene2", "table3", "table4"),
    ),
)


def split_label(label: str) -> Tuple[str, Optional[str]]:
    """(experiment, platform) of a ``depends`` entry or node label;
    the platform is ``None`` when the label names none."""
    name, _, platform = label.partition("@")
    return name, platform or None


def experiment_names() -> Tuple[str, ...]:
    """All registered experiment names in canonical order."""
    return tuple(entry.name for entry in REGISTRY)


def get_entry(
    name: str, registry: Sequence[ExperimentEntry] = REGISTRY
) -> ExperimentEntry:
    """Registry entry for ``name``."""
    for entry in registry:
        if entry.name == name:
            return entry
    raise ConfigurationError(
        f"unknown experiment {name!r}; known: "
        f"{', '.join(entry.name for entry in registry)}"
    )


@dataclass(frozen=True)
class Node:
    """One experiment on one platform: what the orchestrator runs once."""

    entry: ExperimentEntry
    #: Platform the renderer receives (``None``: platform-independent).
    platform: Optional[str]
    #: Keys of the nodes whose results this one takes, in ``depends``
    #: order.
    inputs: Tuple[Tuple[str, Optional[str]], ...]
    #: Name in summaries and errors: the experiment's, with
    #: ``@platform`` appended when a request of it would run elsewhere.
    label: str

    @property
    def key(self) -> Tuple[str, Optional[str]]:
        """(experiment, platform): equal keys are one node."""
        return (self.entry.name, self.platform)


def topological_order(
    names: Sequence[str],
    platform: Optional[str] = None,
    registry: Sequence[ExperimentEntry] = REGISTRY,
) -> List[Node]:
    """Nodes for ``names`` on ``platform`` and their inputs, in a
    deterministic dependency-safe order.

    Every ``depends`` entry is scheduled, requested or not (running
    ``report`` alone runs ``table3`` and ``table4`` first, and their
    ``fig14`` inputs before them). ``platform`` is the run's override:
    a requested experiment runs on it, else on its ``default_platform``.
    Of the nodes whose inputs are done, the first in registry order,
    then in order of discovery, comes next, so the result is stable.
    ``registry`` defaults to the package registry and exists for testing
    alternative catalogues.
    """
    discovered: Dict[Tuple[str, Optional[str]], Node] = {}
    pending = [(name, platform) for name in reversed(names)]
    while pending:
        name, wanted = pending.pop()
        entry = get_entry(name, registry)
        on = wanted or entry.default_platform
        if (name, on) in discovered:
            continue
        wants = [split_label(dep) for dep in entry.depends]
        inputs = tuple(
            (dep, dep_on or on or get_entry(dep, registry).default_platform)
            for dep, dep_on in wants
        )
        label = name if on == (platform or entry.default_platform) else (
            f"{name}@{on}"
        )
        discovered[(name, on)] = Node(entry, on, inputs, label)
        pending.extend((dep, dep_on or on) for dep, dep_on in reversed(wants))
    position = {entry.name: i for i, entry in enumerate(registry)}
    rank = {
        key: (position[key[0]], i) for i, key in enumerate(discovered)
    }
    remaining = {key: set(node.inputs) for key, node in discovered.items()}
    order: List[Node] = []
    while remaining:
        ready = [key for key, deps in remaining.items() if not deps]
        if not ready:
            cycle = ", ".join(sorted(discovered[key].label for key in remaining))
            raise ConfigurationError(
                f"dependency cycle among experiments: {cycle}"
            )
        key = min(ready, key=rank.__getitem__)
        del remaining[key]
        for deps in remaining.values():
            deps.discard(key)
        order.append(discovered[key])
    return order
