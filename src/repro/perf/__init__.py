"""Performance substrate: frequency scaling, thread semantics, contention."""

from .contention import (
    L2_SHARING_PENALTY,
    STALL_ACTIVITY,
    bandwidth_capacity_gbs,
    bandwidth_utilization,
    contention_factor,
    l2_sharing_factor,
)
from .model import (
    ExecutionState,
    ThreadWork,
    bandwidth_demand_gbs,
    execution_state,
    mem_time_scale,
    multi_instance_performance_ratio,
    solo_slowdown,
    thread_work,
)

__all__ = [
    "ExecutionState",
    "L2_SHARING_PENALTY",
    "STALL_ACTIVITY",
    "ThreadWork",
    "bandwidth_capacity_gbs",
    "bandwidth_demand_gbs",
    "bandwidth_utilization",
    "contention_factor",
    "execution_state",
    "l2_sharing_factor",
    "mem_time_scale",
    "multi_instance_performance_ratio",
    "solo_slowdown",
    "thread_work",
]
