"""Model of the SLIMpro management processor's voltage interface.

Both X-Gene chips carry a *Scalable Lightweight Intelligent Management*
processor (SLIMpro) that monitors sensors and regulates the supply voltage
of the PCP power domain (Section II.A). The real interface is an I2C
mailbox reachable from the host kernel; this model keeps its two relevant
properties:

* a **single rail** — one voltage for all cores of the chip;
* a **quantised range** — requests are clamped to the supported range and
  snapped to the regulator step (the paper characterizes in 10 mV steps;
  the regulator itself supports 5 mV granularity).

The model also accounts for the regulator settle latency so simulations can
charge a (tiny) transition cost for every voltage change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import VoltageRangeError


@dataclass
class VoltageTransition:
    """Record of one voltage change, for traces and tests."""

    time_s: float
    from_mv: int
    to_mv: int


class SlimPro:
    """Voltage regulator of the PCP domain, plus its transition log.

    Parameters
    ----------
    nominal_mv:
        Power-on voltage of the rail.
    min_mv / max_mv:
        Supported regulator range. The paper only ever scales *down* from
        nominal, so ``max_mv`` defaults to the nominal voltage.
    step_mv:
        Regulator granularity; requests snap to multiples of this step.
    settle_time_s:
        Time for the rail to settle after a request; the system simulator
        charges this as a stall when raising the voltage (the fail-safe
        protocol of Section VI.A raises voltage *before* frequency).
    """

    def __init__(
        self,
        nominal_mv: int,
        min_mv: int,
        max_mv: Optional[int] = None,
        step_mv: int = 5,
        settle_time_s: float = 50e-6,
    ):
        if step_mv <= 0:
            raise VoltageRangeError(f"step_mv must be positive, got {step_mv}")
        self.nominal_mv = int(nominal_mv)
        self.min_mv = int(min_mv)
        self.max_mv = int(max_mv if max_mv is not None else nominal_mv)
        if not self.min_mv <= self.nominal_mv <= self.max_mv:
            raise VoltageRangeError(
                f"nominal {nominal_mv} mV outside supported range "
                f"[{self.min_mv}, {self.max_mv}] mV"
            )
        self.step_mv = int(step_mv)
        self.settle_time_s = float(settle_time_s)
        self._voltage_mv = self.nominal_mv
        self.transitions: List[VoltageTransition] = []

    @property
    def voltage_mv(self) -> int:
        """Current rail voltage in mV."""
        return self._voltage_mv

    def quantize(self, voltage_mv: float) -> int:
        """Snap a request to the regulator step (rounding up, for safety).

        Rounding up means a quantised request never lands *below* the
        caller's intended level, which matters when the caller is setting
        a safe-Vmin floor.
        """
        steps, rem = divmod(int(round(voltage_mv)), self.step_mv)
        if rem:
            steps += 1
        return steps * self.step_mv

    def set_voltage(self, voltage_mv: float, time_s: float = 0.0) -> int:
        """Request a rail voltage; returns the actually-applied value.

        Raises :class:`VoltageRangeError` when the request falls outside
        the regulator's supported range.
        """
        target = self.quantize(voltage_mv)
        if not self.min_mv <= target <= self.max_mv:
            raise VoltageRangeError(
                f"requested {voltage_mv:.0f} mV (quantised {target} mV) "
                f"outside [{self.min_mv}, {self.max_mv}] mV"
            )
        if target != self._voltage_mv:
            previous = self._voltage_mv
            self._voltage_mv = target
            self.transitions.append(VoltageTransition(time_s, previous, target))
        return self._voltage_mv

    def transition_count(self) -> int:
        """Number of voltage changes applied so far."""
        return len(self.transitions)
