"""Parallel experiment orchestrator with deterministic output merging.

:func:`run_experiments` is the one way to run experiments: the CLI's
single-experiment commands and ``repro run-all`` both call it. It
schedules the ~20 registered experiments over a process pool:

* the **registry** (:mod:`repro.experiments.registry`) declares every
  experiment with its paper artefact, its inputs and a cost hint;
* scheduling is **topological** over nodes, one per (experiment,
  platform) — independent figures run concurrently, and an
  experiment's inputs (``depends``) always run before it, requested or
  not, and hand it their result objects, across the pool too; a
  request and an input with the same key run once, and each result is
  kept only until its last dependent has run. ``depends`` is the one
  way results move between nodes;
* results are **merged deterministically**: the ``format()`` text of
  every requested experiment is assembled in the requested order
  regardless of completion order, so ``--jobs 4`` output is
  byte-identical to ``--jobs 1`` output; inputs that were not requested
  run but are not printed, while the summary lists every node;
* with a ``cache_dir``, every node reads and writes the on-disk
  characterization cache (:mod:`repro.vmin.cache`), so a later run
  reuses this run's campaigns; no two nodes of one run characterize
  the same campaign, so no node reads what another wrote, and a node's
  work and counters do not depend on which process ran what.

A renderer's :class:`~repro.errors.ReproError` or ``OSError`` comes out
as an :class:`~repro.errors.ExperimentError` naming the node's label,
and so does a pool worker that dies: each worker marks the node it
starts, so the parent names the node whose worker died rather than
one the broken pool failed with it.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import signal
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
from .registry import Node, experiment_names, topological_order


@dataclass(frozen=True)
class ExperimentOutcome:
    """Result of one orchestrated node execution."""

    #: The node's label: the experiment name, with ``@platform`` for an
    #: input that runs on another platform than a request of it would.
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
    """Outcome of one orchestrated batch, in deterministic order."""

    jobs: int
    elapsed_s: float
    #: Every node that ran: the requested experiments in requested
    #: order, then the inputs nobody requested in schedule order.
    outcomes: List[ExperimentOutcome] = field(default_factory=list)
    #: The requested experiments, which :meth:`merged_output` prints.
    requested: Tuple[str, ...] = ()
    #: Run-level telemetry snapshot (orchestrator counters and the run
    #: span), present only when ``collect_telemetry=True``.
    metrics: Optional[Snapshot] = None

    def outcome(self, name: str) -> ExperimentOutcome:
        """Outcome of one node by label."""
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
            f"== {name} ==\n{self.outcome(name).output}\n\n"
            for name in self.requested
        )

    @property
    def cache_totals(self) -> CacheStats:
        """Characterization cache counters summed over all nodes."""
        total = CacheStats()
        for item in self.outcomes:
            total.hits += item.cache.hits
            total.misses += item.cache.misses
            total.stores += item.cache.stores
            total.disk_hits += item.cache.disk_hits
            total.corrupt_discarded += item.cache.corrupt_discarded
        return total

    def format_table(self) -> str:
        """Per-node timing and cache-hit summary table."""
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
        """Sum of per-node wall times (the sequential cost)."""
        return sum(item.elapsed_s for item in self.outcomes)


@dataclass(frozen=True)
class _Settings:
    """The arguments every node of one batch receives besides its
    platform."""

    duration_s: float
    seed: int
    policy: Optional[str]
    cache_dir: Optional[str]
    collect_telemetry: bool


def _render(
    node: Node, settings: _Settings, inputs: Dict[str, object]
) -> Tuple[object, str]:
    """The node's result and its formatted text, errors named."""
    entry = node.entry
    module = importlib.import_module(entry.module_path)
    renderer = getattr(module, entry.render_name)
    try:
        result = renderer(
            platform=node.platform,
            duration_s=settings.duration_s,
            seed=settings.seed,
            policy=settings.policy,
            **inputs,
        )
        return result, result.format()
    except (ReproError, OSError) as exc:
        raise ExperimentError(node.label, exc) from exc


def _execute(
    node: Node, settings: _Settings, inputs: Dict[str, object], keep: bool
) -> Tuple[ExperimentOutcome, object]:
    """Run one node in the current process (pool worker body).

    ``inputs`` are the results of the node's inputs, by experiment name;
    the node's own result comes back only when ``keep`` says a later
    node takes it as an input (a pool worker pickles it).
    """
    ensure_default_cache(settings.cache_dir)
    cache = get_default_cache()
    before = cache.stats.snapshot()
    metrics: Optional[Snapshot] = None
    started = time.perf_counter()
    if settings.collect_telemetry:
        # Fresh registry per node, so the snapshot attributes every
        # metric to exactly one node even when several run in the same
        # worker process.
        with telemetry.session() as registry:
            with telemetry.span(metric_names.ORCH_EXPERIMENT_SPAN):
                result, output = _render(node, settings, inputs)
            cache.publish_telemetry()
            metrics = registry.snapshot()
    else:
        result, output = _render(node, settings, inputs)
    elapsed = time.perf_counter() - started
    outcome = ExperimentOutcome(
        name=node.label,
        artefact=node.entry.artefact,
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
    inputs run too and are listed in the summary after them. The merge
    order of :meth:`RunSummary.merged_output` always follows the
    requested order, independent of scheduling. ``jobs=1`` runs
    everything in-process; higher values fan independent nodes out over
    a process pool while dependents wait for their inputs.

    With ``collect_telemetry=True`` every node carries a metric
    snapshot (:attr:`ExperimentOutcome.metrics`) and the summary carries
    the orchestrator-level snapshot (:attr:`RunSummary.metrics`) —
    queue depth and busy-worker samples, the completed-node counter and
    the run wall-time span.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    requested = tuple(
        dict.fromkeys(names if names is not None else experiment_names())
    )
    schedule = topological_order(requested, platform)
    settings = _Settings(
        duration_s, seed, policy, cache_dir, collect_telemetry
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
    inputs = [node.label for node in schedule if node.label not in requested]
    return RunSummary(
        jobs=jobs,
        elapsed_s=time.perf_counter() - started,
        outcomes=[outcomes[label] for label in (*requested, *inputs)],
        requested=requested,
        metrics=run_metrics,
    )


#: States a pool worker records for each node of the schedule.
_STARTED, _FINISHED, _TERMINATED = 1, 2, 3

#: Per-node states shared with the parent, and the node this worker is
#: running (both set in pool workers only).
_states: Any = None
_running_index: Optional[int] = None


def _worker_init(states: Any) -> None:
    """Pool worker setup: keep the shared states, and mark the running
    node terminated when the pool kills this worker after another died."""
    global _states
    _states = states
    signal.signal(signal.SIGTERM, _on_terminate)


def _on_terminate(signum: int, frame: object) -> None:
    if _running_index is not None:
        _states[_running_index] = _TERMINATED
    os._exit(128 + signum)


def _execute_in_worker(
    index: int, *args: Any
) -> Tuple[ExperimentOutcome, object]:
    """:func:`_execute` with the node's start and finish recorded."""
    global _running_index
    _running_index = index
    _states[index] = _STARTED
    try:
        return _execute(*args)
    finally:
        _states[index] = _FINISHED
        _running_index = None


def _run_schedule(
    schedule: List[Node], jobs: int, settings: _Settings
) -> Dict[str, ExperimentOutcome]:
    """Run ``schedule`` serially or over the pool, handing every node
    the results of its inputs; outcomes by label."""
    # Scheduled nodes still to take each result as an input.
    readers = Counter(key for node in schedule for key in node.inputs)
    results: Dict[Tuple[str, Optional[str]], object] = {}
    outcomes: Dict[str, ExperimentOutcome] = {}

    def arguments(node: Node) -> tuple:
        inputs = {key[0]: results[key] for key in node.inputs}
        return node, settings, inputs, readers[node.key] > 0

    def finish(node: Node, outcome: ExperimentOutcome, result: object) -> None:
        outcomes[node.label] = outcome
        if readers[node.key]:
            results[node.key] = result
        for key in node.inputs:
            readers[key] -= 1
            if not readers[key]:
                del results[key]
        telemetry.inc(metric_names.ORCH_EXPERIMENTS_COMPLETED)

    if jobs == 1 or len(schedule) == 1:
        for i, node in enumerate(schedule):
            telemetry.observe(
                metric_names.ORCH_QUEUE_DEPTH, len(schedule) - i
            )
            finish(node, *_execute(*arguments(node)))
        return outcomes
    position = {node.key: i for i, node in enumerate(schedule)}
    waiting = {node.key: set(node.inputs) for node in schedule}
    node_of = {node.key: node for node in schedule}
    states = multiprocessing.Array("b", len(schedule), lock=False)
    running: Dict[Future, Node] = {}
    broken: Optional[BrokenProcessPool] = None
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_worker_init, initargs=(states,)
    ) as pool:
        while (waiting or running) and broken is None:
            # Launch every dependency-free node, costliest first, so
            # long-running ones do not straggle at the end.
            ready = sorted(
                (key for key, deps in waiting.items() if not deps),
                key=lambda k: (-node_of[k].entry.cost, position[k]),
            )
            for key in ready:
                del waiting[key]
                future = pool.submit(
                    _execute_in_worker,
                    position[key],
                    *arguments(node_of[key]),
                )
                running[future] = node_of[key]
            # Scheduler-health samples; completion-order dependent, so
            # the manifest fingerprint and diff leave them out
            # (repro.telemetry.manifest.SCHEDULE_KEYS).
            telemetry.observe(metric_names.ORCH_QUEUE_DEPTH, len(waiting))
            telemetry.observe(metric_names.ORCH_INFLIGHT, len(running))
            done, _ = wait(set(running), return_when=FIRST_COMPLETED)
            for future in sorted(done, key=lambda f: position[running[f].key]):
                node = running.pop(future)
                try:
                    outcome, result = future.result()
                except BrokenProcessPool as exc:
                    broken = exc
                    running[future] = node
                    break
                finish(node, outcome, result)
                for deps in waiting.values():
                    deps.discard(node.key)
    if broken is not None:
        # The pool has shut down: every worker it killed has marked its
        # node terminated, so a node still marked started is the one
        # whose worker died on its own.
        failed = sorted(
            (node for future, node in running.items() if future.exception()),
            key=lambda n: position[n.key],
        )
        died = [n for n in failed if states[position[n.key]] == _STARTED]
        raise ExperimentError((died or failed)[0].label, broken) from broken
    return outcomes
