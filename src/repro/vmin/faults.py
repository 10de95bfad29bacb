"""Stochastic failure model below the safe Vmin (Section III.B, Fig. 5).

Above the safe Vmin every run completes correctly; below it the
probability that *at least one abnormal behaviour* occurs during a run
rises smoothly until the system crash point, where every run fails. The
observed abnormal behaviours are silent data corruptions (SDCs), process
timeouts, thread hangs and full system crashes; close to the Vmin SDCs
dominate (marginal timing failures corrupt data), deeper undervolting
increasingly crashes the machine.

The cumulative-failure-probability curve is a smoothstep over a
configuration-dependent width: configurations with more utilized PMDs
(larger droops) fail more steeply, matching the "most severe behaviour"
of the max-threads lines in Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ConfigurationError
from ..platform.pmu import DROOP_BINS_MV
from ..platform.registry import FaultParams, model_for_spec
from ..platform.specs import ChipSpec
from ..units import Millivolts

#: Outcome tags of one run: a pass or one of the abnormal behaviours.
OUTCOME_PASS = "pass"
OUTCOME_SDC = "sdc"
OUTCOME_CRASH = "crash"
OUTCOME_HANG = "hang"
OUTCOME_TIMEOUT = "timeout"

FAULT_OUTCOMES = (OUTCOME_SDC, OUTCOME_CRASH, OUTCOME_HANG, OUTCOME_TIMEOUT)


def _smoothstep(x: float) -> float:
    """C1-continuous ramp from 0 at x=0 to 1 at x=1."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return x * x * (3.0 - 2.0 * x)


@dataclass(frozen=True)
class UnsafeRegion:
    """Summary of the unsafe region below one configuration's Vmin."""

    safe_vmin_mv: float
    crash_voltage_mv: float

    @property
    def width_mv(self) -> float:
        """Voltage span between first failures and certain failure."""
        return self.safe_vmin_mv - self.crash_voltage_mv


class FaultModel:
    """Failure probability and failure-type mix below the safe Vmin."""

    #: Unsafe-region width at the mildest droop class, in mV.
    MAX_WIDTH_MV = 50.0
    #: Unsafe-region width shrinks this many mV per droop class: larger
    #: droops make the failure cliff steeper (Fig. 5).
    WIDTH_STEP_MV = 7.0
    MIN_WIDTH_MV = 20.0

    def __init__(
        self,
        params: Optional[FaultParams] = None,
        spec: Optional[ChipSpec] = None,
    ):
        """Fault model with a chip's unsafe-region geometry.

        ``params`` wins; otherwise ``spec``'s registered bundle supplies
        them. With neither, the class-level defaults apply — and chips
        whose bundle repeats the defaults behave (and hash in the Vmin
        cache) exactly as a default-constructed model.
        """
        if params is None and spec is not None:
            params = model_for_spec(spec).faults
        if params is not None:
            self.MAX_WIDTH_MV = params.max_width_mv
            self.WIDTH_STEP_MV = params.width_step_mv
            self.MIN_WIDTH_MV = params.min_width_mv

    def width_mv(self, droop_class: int) -> Millivolts:
        """Unsafe-region width for one droop class."""
        if droop_class < 0 or droop_class >= len(DROOP_BINS_MV):
            raise ConfigurationError(
                f"droop class {droop_class} out of range"
            )
        return max(
            self.MIN_WIDTH_MV,
            self.MAX_WIDTH_MV - self.WIDTH_STEP_MV * droop_class,
        )

    def unsafe_region(
        self, safe_vmin_mv: Millivolts, droop_class: int
    ) -> UnsafeRegion:
        """Safe Vmin and crash point for one configuration."""
        return UnsafeRegion(
            safe_vmin_mv=safe_vmin_mv,
            crash_voltage_mv=safe_vmin_mv - self.width_mv(droop_class),
        )

    def pfail(
        self, voltage_mv: Millivolts, safe_vmin_mv: Millivolts, droop_class: int
    ) -> float:
        """Cumulative probability that one run fails at ``voltage_mv``.

        Zero at and above the safe Vmin, one at and below the crash
        point, smooth in between (the shape of Fig. 5's curves).
        """
        depth = safe_vmin_mv - voltage_mv
        if depth <= 0.0:
            return 0.0
        return _smoothstep(depth / self.width_mv(droop_class))

    def depth_fraction(
        self, voltage_mv: Millivolts, safe_vmin_mv: Millivolts, droop_class: int
    ) -> float:
        """Normalised depth below Vmin: 0 at Vmin, 1 at the crash point."""
        depth = safe_vmin_mv - voltage_mv
        width = self.width_mv(droop_class)
        return min(1.0, max(0.0, depth / width))

    def outcome_mix(
        self, voltage_mv: Millivolts, safe_vmin_mv: Millivolts, droop_class: int
    ) -> Dict[str, float]:
        """Conditional distribution of failure types, given a failure.

        Near the Vmin, SDCs and timeouts dominate (marginal timing
        failures); near the crash point, system crashes dominate.
        """
        x = self.depth_fraction(voltage_mv, safe_vmin_mv, droop_class)
        crash = 0.15 + 0.65 * x
        sdc = max(0.05, 0.55 - 0.40 * x)
        hang = 0.12 * (1.0 - 0.5 * x)
        timeout = max(0.0, 1.0 - crash - sdc - hang)
        total = crash + sdc + hang + timeout
        return {
            OUTCOME_CRASH: crash / total,
            OUTCOME_SDC: sdc / total,
            OUTCOME_HANG: hang / total,
            OUTCOME_TIMEOUT: timeout / total,
        }

    def probability_all_pass(
        self,
        voltage_mv: Millivolts,
        safe_vmin_mv: Millivolts,
        droop_class: int,
        runs: int,
    ) -> float:
        """Probability that ``runs`` independent runs all pass."""
        if runs < 0:
            raise ConfigurationError("runs must be non-negative")
        p = self.pfail(voltage_mv, safe_vmin_mv, droop_class)
        return (1.0 - p) ** runs
