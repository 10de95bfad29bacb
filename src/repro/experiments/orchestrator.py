"""Parallel experiment orchestrator with deterministic output merging.

:func:`run_experiments` is the one way to run experiments: the CLI's
single-experiment commands and ``repro run-all`` both call it. It
schedules the ~20 registered experiments over a process pool:

* the **registry** (:mod:`repro.experiments.registry`) declares every
  experiment with its paper artefact, its inputs and a cost hint;
* scheduling is **topological** — independent figures run concurrently,
  and an experiment's inputs (``depends``) always run before it,
  requested or not, and hand it their result objects, across the pool
  too; each result is kept only until its last dependent has run;
* results are **merged deterministically**: the ``format()`` text of
  every requested experiment is assembled in the requested order
  regardless of completion order, so ``--jobs 4`` output is
  byte-identical to ``--jobs 1`` output; inputs that were not requested
  run but are not printed;
* every worker shares the characterization cache
  (:mod:`repro.vmin.cache`): in-memory within a process, and through
  the on-disk store across processes when a ``cache_dir`` is given, so
  repeated safe-Vmin campaigns across figures are not re-simulated.

A renderer's :class:`~repro.errors.ReproError` or ``OSError`` comes out
as an :class:`~repro.errors.ExperimentError` naming the experiment.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..analysis.tables import format_table
from ..errors import ConfigurationError, ExperimentError, ReproError
from ..telemetry import names as metric_names
from ..telemetry.metrics import Snapshot
from ..vmin.cache import (
    CacheStats,
    ensure_default_cache,
    get_default_cache,
)
from .registry import (
    ExperimentEntry,
    experiment_names,
    get_entry,
    topological_order,
)


@dataclass(frozen=True)
class ExperimentOutcome:
    """Result of one orchestrated experiment execution."""

    name: str
    artefact: str
    output: str
    elapsed_s: float
    cache: CacheStats
    #: Telemetry snapshot of this experiment's execution, present only
    #: when the batch ran with ``collect_telemetry=True``.
    metrics: Optional[Snapshot] = None

    @property
    def cache_hit_rate(self) -> float:
        """Characterization cache hit rate during this experiment."""
        return self.cache.hit_rate


@dataclass
class RunSummary:
    """Outcome of one orchestrated batch, in deterministic merge order."""

    jobs: int
    elapsed_s: float
    outcomes: List[ExperimentOutcome] = field(default_factory=list)
    #: Run-level telemetry snapshot (orchestrator counters and the run
    #: span), present only when ``collect_telemetry=True``.
    metrics: Optional[Snapshot] = None

    def outcome(self, name: str) -> ExperimentOutcome:
        """Outcome of one experiment by name."""
        for item in self.outcomes:
            if item.name == name:
                return item
        raise ConfigurationError(f"no outcome for experiment {name!r}")

    def merged_output(self) -> str:
        """Experiment output in requested order (parallel-invariant).

        This is exactly what the sequential CLI prints: a ``== name ==``
        header, the experiment text and a blank line, per experiment.
        """
        return "".join(
            f"== {item.name} ==\n{item.output}\n\n" for item in self.outcomes
        )

    @property
    def cache_totals(self) -> CacheStats:
        """Characterization cache counters summed over all experiments."""
        total = CacheStats()
        for item in self.outcomes:
            total.hits += item.cache.hits
            total.misses += item.cache.misses
            total.stores += item.cache.stores
            total.evictions += item.cache.evictions
            total.disk_hits += item.cache.disk_hits
            total.corrupt_discarded += item.cache.corrupt_discarded
        return total

    def format_table(self) -> str:
        """Per-experiment timing and cache-hit summary table."""
        rows = [
            (
                item.name,
                f"{item.elapsed_s:.2f}",
                item.cache.hits,
                item.cache.misses,
                f"{100.0 * item.cache.hit_rate:.0f}%",
            )
            for item in self.outcomes
        ]
        totals = self.cache_totals
        rows.append(
            (
                "total",
                f"{self.elapsed_s:.2f}",
                totals.hits,
                totals.misses,
                f"{100.0 * totals.hit_rate:.0f}%",
            )
        )
        table = format_table(
            ("experiment", "wall s", "cache hits", "misses", "hit rate"),
            rows,
            title=f"orchestrator summary ({self.jobs} job(s))",
        )
        return (
            f"{table}\n"
            f"speedup vs serial sum: "
            f"{self.serial_time_s / self.elapsed_s:.2f}x"
            if self.elapsed_s > 0
            else table
        )

    @property
    def serial_time_s(self) -> float:
        """Sum of per-experiment wall times (the sequential cost)."""
        return sum(item.elapsed_s for item in self.outcomes)


@dataclass(frozen=True)
class _Settings:
    """The arguments every experiment of one batch receives."""

    platform: Optional[str]
    duration_s: float
    seed: int
    policy: Optional[str]
    cache_dir: Optional[str]
    collect_telemetry: bool


def _render(
    entry: ExperimentEntry, settings: _Settings, inputs: Dict[str, object]
) -> Tuple[object, str]:
    """The entry's result and its formatted text, errors named."""
    module = importlib.import_module(entry.module_path)
    renderer = getattr(module, entry.render_name)
    try:
        result = renderer(
            platform=settings.platform or entry.default_platform,
            duration_s=settings.duration_s,
            seed=settings.seed,
            policy=settings.policy,
            **inputs,
        )
        return result, result.format()
    except (ReproError, OSError) as exc:
        raise ExperimentError(entry.name, exc) from exc


def _execute(
    name: str, settings: _Settings, inputs: Dict[str, object], keep: bool
) -> Tuple[ExperimentOutcome, object]:
    """Run one experiment in the current process (pool worker body).

    ``inputs`` are the results of the entry's ``depends``; the
    experiment's own result comes back only when ``keep`` says a later
    experiment takes it as an input (a pool worker pickles it).
    """
    ensure_default_cache(settings.cache_dir)
    entry = get_entry(name)
    cache = get_default_cache()
    before = cache.stats.snapshot()
    metrics: Optional[Snapshot] = None
    started = time.perf_counter()
    if settings.collect_telemetry:
        # Fresh registry per experiment, so the snapshot attributes
        # every metric to exactly one experiment even when several run
        # in the same worker process.
        with telemetry.session() as registry:
            with telemetry.span(metric_names.ORCH_EXPERIMENT_SPAN):
                result, output = _render(entry, settings, inputs)
            cache.publish_telemetry()
            metrics = registry.snapshot()
    else:
        result, output = _render(entry, settings, inputs)
    elapsed = time.perf_counter() - started
    outcome = ExperimentOutcome(
        name=entry.name,
        artefact=entry.artefact,
        output=output,
        elapsed_s=elapsed,
        cache=cache.stats.delta(before),
        metrics=metrics,
    )
    return outcome, result if keep else None


def run_experiments(
    names: Optional[Sequence[str]] = None,
    jobs: int = 1,
    platform: Optional[str] = None,
    duration_s: float = 600.0,
    seed: int = 0,
    cache_dir: Optional[str] = None,
    collect_telemetry: bool = False,
    policy: Optional[str] = None,
) -> RunSummary:
    """Run a batch of experiments, optionally across worker processes.

    ``names`` defaults to the full registry in canonical order; their
    inputs run too but are not part of the summary. The merge order of
    :meth:`RunSummary.merged_output` always follows the requested order,
    independent of scheduling. ``jobs=1`` runs everything in-process;
    higher values fan independent experiments out over a process pool
    while dependents wait for their inputs.

    With ``collect_telemetry=True`` every experiment carries a metric
    snapshot (:attr:`ExperimentOutcome.metrics`) and the summary carries
    the orchestrator-level snapshot (:attr:`RunSummary.metrics`) —
    queue depth and busy-worker samples, the completed-experiment
    counter and the run wall-time span.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    requested = list(
        dict.fromkeys(names if names is not None else experiment_names())
    )
    schedule = topological_order(requested)
    settings = _Settings(
        platform, duration_s, seed, policy, cache_dir, collect_telemetry
    )
    started = time.perf_counter()
    run_metrics: Optional[Snapshot] = None
    if collect_telemetry:
        with telemetry.session() as registry:
            with telemetry.span(metric_names.ORCH_RUN_SPAN):
                outcomes = _run_schedule(schedule, jobs, settings)
            run_metrics = registry.snapshot()
    else:
        outcomes = _run_schedule(schedule, jobs, settings)
    return RunSummary(
        jobs=jobs,
        elapsed_s=time.perf_counter() - started,
        outcomes=[outcomes[name] for name in requested],
        metrics=run_metrics,
    )


def _run_schedule(
    schedule: List[ExperimentEntry], jobs: int, settings: _Settings
) -> Dict[str, ExperimentOutcome]:
    """Run ``schedule`` serially or over the pool, handing every
    experiment the results of its inputs."""
    # Scheduled experiments still to take each result as an input.
    readers = Counter(dep for entry in schedule for dep in entry.depends)
    results: Dict[str, object] = {}
    outcomes: Dict[str, ExperimentOutcome] = {}

    def arguments(entry: ExperimentEntry) -> tuple:
        inputs = {dep: results[dep] for dep in entry.depends}
        return entry.name, settings, inputs, readers[entry.name] > 0

    def finish(
        entry: ExperimentEntry, outcome: ExperimentOutcome, result: object
    ) -> None:
        outcomes[entry.name] = outcome
        if readers[entry.name]:
            results[entry.name] = result
        for dep in entry.depends:
            readers[dep] -= 1
            if not readers[dep]:
                del results[dep]
        telemetry.inc(metric_names.ORCH_EXPERIMENTS_COMPLETED)

    if jobs == 1 or len(schedule) == 1:
        for i, entry in enumerate(schedule):
            telemetry.observe(
                metric_names.ORCH_QUEUE_DEPTH, len(schedule) - i
            )
            finish(entry, *_execute(*arguments(entry)))
        return outcomes
    position = {entry.name: i for i, entry in enumerate(schedule)}
    waiting = {entry.name: set(entry.depends) for entry in schedule}
    entry_of = {entry.name: entry for entry in schedule}
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        running: Dict[Future, ExperimentEntry] = {}
        while waiting or running:
            # Launch every dependency-free experiment, costliest first,
            # so long-running ones do not straggle at the end.
            ready = sorted(
                (name for name, deps in waiting.items() if not deps),
                key=lambda n: (-entry_of[n].cost, position[n]),
            )
            for name in ready:
                del waiting[name]
                future = pool.submit(_execute, *arguments(entry_of[name]))
                running[future] = entry_of[name]
            # Scheduler-health samples; completion-order dependent, so
            # they are histogram shapes, never part of any fingerprint
            # comparison between differently-scheduled runs.
            telemetry.observe(metric_names.ORCH_QUEUE_DEPTH, len(waiting))
            telemetry.observe(metric_names.ORCH_INFLIGHT, len(running))
            done, _ = wait(set(running), return_when=FIRST_COMPLETED)
            for future in done:
                entry = running.pop(future)
                try:
                    outcome, result = future.result()
                except BrokenProcessPool as exc:
                    # A worker died: the pool fails every pending
                    # future alike, so name the first one to surface.
                    raise ExperimentError(entry.name, exc) from exc
                finish(entry, outcome, result)
                for deps in waiting.values():
                    deps.discard(entry.name)
    return outcomes
