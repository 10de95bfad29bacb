"""Benches for the simulator hot path (the incremental-refresh engine).

Two single-workload replays isolate the event loop from the rest of the
evaluation pipeline:

* **daemon-on** — the paper's full monitoring daemon (``optimal``),
  whose frequent monitor ticks are exactly the clean refreshes the
  incremental engine elides; this is the bench the ≥3x hot-path
  speedup target is measured on;
* **ondemand baseline** — the stock governor (``baseline``), dominated
  by arrival/finish/phase events that genuinely dirty the state, as a
  lower bound on what incrementality can save.

Both assert the replay's invariants so a future regression cannot trade
correctness for speed silently. The daemon-on replay is also timed on
the 64-core ``xgene3-xl``, the chip with the most per-process ×
per-core work per event.

A third bench pins the control-plane refactor's overhead claim: the
engine's single contact surface with a policy (fresh
:class:`~repro.policies.surfaces.Observation` per event, ``decide``
indirection, the ``on_applied`` hook check) must cost <5% of the
daemon-on replay versus the leanest possible calling convention — the
shape of the pre-refactor ``Controller`` callbacks, whose committed
pre-refactor median is the ``test_sim_daemon_on_xgene3`` baseline row
policed by ``compare_benchmarks.py``.
"""

import os
import statistics
import time

from repro.core.configurations import run_configuration
from repro.core.policy import VminPolicyTable
from repro.platform.chip import Chip
from repro.platform.specs import get_spec
from repro.policies.actuation import apply_action
from repro.policies.registry import resolve_policy
from repro.policies.surfaces import Observation, PolicyEvent
from repro.sim.system import ServerSystem
from repro.workloads.generator import ServerWorkloadGenerator

from conftest import EVALUATION_DURATION_S, EVALUATION_SEED, run_once

import pytest

#: Max allowed slowdown of the dispatched engine vs the direct-call
#: harness (1.05 == 5%, the refactor's acceptance bound).
MAX_DISPATCH_OVERHEAD = 1.05

#: Interleaved timing rounds; the median of the per-round ratios is
#: compared.
DISPATCH_ROUNDS = 11


@pytest.fixture(scope="module")
def workload3():
    """One deterministic 900 s server workload for the 32-core chip."""
    spec = get_spec("xgene3")
    generator = ServerWorkloadGenerator(
        max_cores=spec.n_cores, seed=EVALUATION_SEED
    )
    return generator.generate(EVALUATION_DURATION_S)


@pytest.fixture(scope="module")
def workload3_xl():
    """One deterministic 900 s server workload for the 64-core chip."""
    spec = get_spec("xgene3-xl")
    generator = ServerWorkloadGenerator(
        max_cores=spec.n_cores, seed=EVALUATION_SEED
    )
    return generator.generate(EVALUATION_DURATION_S)


def _time_daemon_on(benchmark, platform, workload, table):
    result = run_once(
        benchmark,
        run_configuration,
        platform,
        workload,
        "optimal",
        policy=table,
    )
    assert result.violations == []
    assert all(p.finish_s is not None for p in result.processes)
    assert result.energy_j > 0
    benchmark.extra_info["processes"] = len(result.processes)
    benchmark.extra_info["makespan_s"] = result.makespan_s


def test_sim_daemon_on_xgene3(benchmark, workload3, policy3):
    """Daemon-on replay: monitor ticks dominate the event stream."""
    _time_daemon_on(benchmark, "xgene3", workload3, policy3)


def test_sim_daemon_on_xgene3_xl(benchmark, workload3_xl):
    """Daemon-on replay on 64 cores: the most per-core work per event."""
    table = VminPolicyTable.from_characterization(get_spec("xgene3-xl"))
    _time_daemon_on(benchmark, "xgene3-xl", workload3_xl, table)


def test_sim_ondemand_baseline_xgene3(benchmark, workload3, policy3):
    """Baseline replay: mostly state-dirtying arrival/finish events."""
    result = run_once(
        benchmark,
        run_configuration,
        "xgene3",
        workload3,
        "baseline",
        policy=policy3,
    )
    assert all(p.finish_s is not None for p in result.processes)
    assert result.energy_j > 0
    benchmark.extra_info["processes"] = len(result.processes)
    benchmark.extra_info["makespan_s"] = result.makespan_s


def _direct_call_harness(system):
    """The leanest policy calling convention the engine could have.

    Models the pre-refactor ``Controller`` callback shape: no per-event
    observation allocation (one reused live view, fields mutated in
    place — valid because :class:`Observation` is stateless) and no
    ``on_applied`` hook check. The delta against the real
    ``_dispatch_policy`` is therefore exactly the dispatch glue the
    control-plane refactor added.
    """
    obs = Observation(system, PolicyEvent.START)

    def dispatch(event, process=None):
        system._controller_calls += 1
        obs.event = event
        obs.process = process
        action = system.policy.decide(obs)
        if event is PolicyEvent.ADMIT:
            action = system._admission(process, action)
            if action is not None:
                apply_action(system, action, process)
        elif action is not None:
            apply_action(system, action)
        return action

    return dispatch


def _daemon_replay(spec, workload, table, direct=False):
    policy = resolve_policy("daemon", spec, table=table)
    system = ServerSystem(Chip(spec), workload, policy=policy)
    if direct:
        system._dispatch_policy = _direct_call_harness(system)
    return system.run()


def _timed_replay(spec, workload, table, direct):
    started = time.perf_counter()
    _daemon_replay(spec, workload, table, direct=direct)
    return time.perf_counter() - started


def test_policy_dispatch_overhead(workload3, policy3):
    """Observation/decide/actuate glue costs <5% of the daemon-on replay.

    The dispatches that remain are ``START``, every ``ADMIT``,
    ``STARTED`` and ``FINISHED``, and the monitor ticks the engine still
    dispatches one by one: the tick before each quiet-tick horizon and
    every tick whose monitor pass changes a class or that another event
    cuts off. The quiet ticks in between fold through
    :meth:`~repro.policies.surfaces.Policy.quiet_ticks` and never reach
    ``_dispatch_policy``.

    The two variants run interleaved, alternating which goes first,
    with this process pinned to one CPU (the affinity is restored
    afterwards), and the median of the per-round ratios is held to the
    bound: a shared host slows one CPU at a time, and pinned
    back-to-back runs see the same slowdown.

    Deliberately a plain timing test (no ``benchmark`` fixture) so it
    never contributes rows to ``bench_results.json`` or shifts the
    committed regression baseline.
    """
    spec = get_spec("xgene3")

    dispatched = _daemon_replay(spec, workload3, policy3)
    direct = _daemon_replay(spec, workload3, policy3, direct=True)
    # The harness is a pure calling-convention change: both replays
    # must make bit-identical decisions.
    assert direct.energy_j == dispatched.energy_j
    assert direct.makespan_s == dispatched.makespan_s
    assert direct.voltage_transitions == dispatched.voltage_transitions

    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    ratios = []
    try:
        for round_ in range(DISPATCH_ROUNDS):
            if round_ % 2:
                dispatched_s = _timed_replay(spec, workload3, policy3, False)
                direct_s = _timed_replay(spec, workload3, policy3, True)
            else:
                direct_s = _timed_replay(spec, workload3, policy3, True)
                dispatched_s = _timed_replay(spec, workload3, policy3, False)
            ratios.append(dispatched_s / direct_s)
    finally:
        os.sched_setaffinity(0, affinity)

    overhead = statistics.median(ratios)
    print(
        f"policy dispatch overhead: median ratio {overhead:.4f} over "
        f"{DISPATCH_ROUNDS} rounds ({(overhead - 1.0) * 100.0:+.2f}%)"
    )
    assert overhead < MAX_DISPATCH_OVERHEAD, (
        f"policy dispatch costs {(overhead - 1.0) * 100.0:.1f}% on the "
        f"daemon-on replay (bound: "
        f"{(MAX_DISPATCH_OVERHEAD - 1.0) * 100.0:.0f}%)"
    )
