"""Discrete-event server simulator: processes, scheduler, traces.

Control policies live in :mod:`repro.policies`; the simulator only
dispatches ``Observation -> Action`` (see :class:`ServerSystem`).
"""

from .engine import Event, EventQueue, SimClock
from .process import (
    ProcessCounters,
    ProcessState,
    SimProcess,
    WorkloadClass,
)
from .scheduler import ClusterScheduler, SpreadScheduler
from .system import (
    ServerSystem,
    SimLane,
    SystemResult,
    ViolationRecord,
)
from .tracing import TimelineTrace, TraceSample, moving_average

__all__ = [
    "ClusterScheduler",
    "Event",
    "EventQueue",
    "ProcessCounters",
    "ProcessState",
    "ServerSystem",
    "SimClock",
    "SimLane",
    "SimProcess",
    "SpreadScheduler",
    "SystemResult",
    "TimelineTrace",
    "TraceSample",
    "ViolationRecord",
    "WorkloadClass",
    "moving_average",
]
