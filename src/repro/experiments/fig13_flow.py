"""Figure 13 — the daemon's process-handling and placement flow, traced.

Fig. 13 is a flowchart; its reproduction is the daemon implementation
itself (:mod:`repro.core`). This module makes the flow *observable*: it
runs a scripted scenario that exercises every edge of the chart — a
process arrives (raise voltage, place, settle), gets classified, changes
class mid-run (retune in place), a second process arrives and triggers
migrations, and processes exit (replacement + settle down) — and records
each flowchart step as it happens.

The emitted trace doubles as living documentation of the protocol and as
a regression fixture: the step sequence is asserted by the Fig. 13 tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..analysis.tables import format_table
from ..platform.chip import Chip
from ..platform.specs import get_spec
from ..policies.daemon import OnlineMonitoringDaemon
from ..policies.surfaces import PolicyEvent
from ..sim.system import ServerSystem
from ..units import fmt_freq, fmt_mv
from ..workloads.generator import JobSpec, Workload


@dataclass(frozen=True)
class FlowStep:
    """One observed step of the Fig. 13 flow."""

    time_s: float
    step: str
    detail: str


@dataclass
class Fig13Result:
    """The traced flow of one scripted scenario."""

    platform: str
    steps: List[FlowStep] = field(default_factory=list)
    violations: int = 0

    def kinds(self) -> List[str]:
        """Step kinds in order (for sequence assertions)."""
        return [s.step for s in self.steps]

    def format(self) -> str:
        """Render the traced flow and its violation count."""
        table = format_table(
            ("t(s)", "step", "detail"),
            [(round(s.time_s, 2), s.step, s.detail) for s in self.steps],
            title=f"Figure 13 - daemon flow trace ({self.platform})",
        )
        return f"{table}\n\nviolations: {self.violations}"


class _TracingDaemon(OnlineMonitoringDaemon):
    """The daemon with flow-step journaling.

    ``decide`` snapshots the pre-actuation rail, and the post-actuation
    :meth:`~repro.policies.surfaces.Policy.on_applied` hook (the live
    observation now shows the applied state) journals the Fig. 13 step
    the event corresponds to.
    """

    def __init__(self, spec, sink: List[FlowStep]):
        super().__init__(spec)
        self._sink = sink
        self._before_mv = 0
        self._retunes_before = 0

    def decide(self, obs):
        self._before_mv = obs.voltage_mv
        self._retunes_before = self.retunes
        return super().decide(obs)

    def on_applied(self, obs, action):
        def log(step: str, detail: str) -> None:
            self._sink.append(
                FlowStep(time_s=obs.now, step=step, detail=detail)
            )

        event = obs.event
        before = self._before_mv
        after = obs.voltage_mv
        process = obs.process
        if event is PolicyEvent.ADMIT:
            if after > before:
                log(
                    "raise_voltage",
                    f"pre-invocation {fmt_mv(before)} -> {fmt_mv(after)} "
                    f"for pid {process.pid}",
                )
            log("process_arrives", f"pid {process.pid} ({process.name})")
        elif event is PolicyEvent.STARTED:
            log(
                "placement",
                f"pid {process.pid} on cores {list(process.cores)}",
            )
            if after != before:
                log(
                    "settle_voltage",
                    f"{fmt_mv(before)} -> {fmt_mv(after)}",
                )
        elif event is PolicyEvent.FINISHED:
            log("process_exits", f"pid {process.pid} ({process.name})")
            if after != before:
                log(
                    "settle_voltage",
                    f"{fmt_mv(before)} -> {fmt_mv(after)}",
                )
        elif event is PolicyEvent.TICK:
            if self.retunes > self._retunes_before:
                state = obs.chip_state()
                freqs = sorted(
                    {
                        fmt_freq(state.pmd_frequencies_hz[p])
                        for p in state.active_pmds
                    }
                )
                log(
                    "class_change_retune",
                    f"active clocks now {freqs}, rail "
                    f"{fmt_mv(state.voltage_mv)}",
                )


def scripted_workload() -> Workload:
    """The scenario: phase-changing job, then a CPU job, then exits."""
    return Workload(
        jobs=(
            JobSpec(0, "setup-then-crunch", 2, 0.0),
            JobSpec(1, "namd", 1, 30.0),
        ),
        duration_s=600.0,
        max_cores=8,
        seed=0,
    )


def run(platform: str = "xgene2") -> Fig13Result:
    """Trace the daemon through the scripted scenario."""
    spec = get_spec(platform)
    result = Fig13Result(platform=spec.name)
    chip = Chip(spec)
    daemon = _TracingDaemon(spec, result.steps)
    system = ServerSystem(chip, scripted_workload(), daemon)
    outcome = system.run()
    result.violations = len(outcome.violations)
    return result


def render(
    platform: str, duration_s: float, seed: int, policy: str | None
) -> Fig13Result:
    """The Fig. 13 decision flow with its violation count."""
    return run(platform)
