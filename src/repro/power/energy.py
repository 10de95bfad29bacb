"""Energy accounting and combined energy/performance metrics (Section V).

Energy is the integral of power over a run; to compare configurations
without rewarding arbitrarily slow ones, the paper uses the
energy-delay-squared product (ED2P = E * D^2), the standard server-class
metric that weighs performance more heavily than EDP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..units import Joules, Seconds, Watts


def ed2p(energy_j: Joules, delay_s: Seconds) -> float:
    """Energy-delay-squared product, J*s^2 (the paper's metric)."""
    return energy_j * delay_s * delay_s


def running_total(start: float, values: np.ndarray) -> float:
    """``start`` plus each of ``values`` in turn, as repeated ``+=``.

    The additions run left to right (``numpy.add.accumulate``), never
    pairwise, so the result equals the per-value loop bit for bit.
    """
    if len(values) == 0:
        return start
    return float(np.add.accumulate(np.concatenate(([start], values)))[-1])


def savings_percent(baseline: float, improved: float) -> float:
    """Relative saving of ``improved`` vs ``baseline``, in percent.

    Positive when ``improved`` is smaller (better); this is how the
    paper's Tables III/IV report energy and ED2P savings.
    """
    if baseline == 0:
        raise ConfigurationError("baseline value must be non-zero")
    return 100.0 * (baseline - improved) / baseline


def penalty_percent(baseline: float, degraded: float) -> float:
    """Relative increase of ``degraded`` vs ``baseline``, in percent.

    Positive when ``degraded`` is larger; used for completion-time
    penalties (3.2 % / 2.5 % in the paper's evaluation).
    """
    return -savings_percent(baseline, degraded)


@dataclass
class EnergyMeter:
    """Integrates piecewise-constant power into energy over time.

    The system simulator calls :meth:`accumulate` for every interval
    between events and :meth:`accumulate_intervals` for the quiet
    monitor ticks it advances together.
    """

    energy_j: float = 0.0

    def accumulate(self, power_w: Watts, dt_s: Seconds) -> None:
        """Add an interval of constant power."""
        if dt_s < 0:
            raise ConfigurationError("interval must be non-negative")
        if power_w < 0:
            raise ConfigurationError("power must be non-negative")
        if dt_s == 0:
            return
        self.energy_j += power_w * dt_s

    def accumulate_intervals(self, power_w: Watts, dts_s: np.ndarray) -> None:
        """Add consecutive intervals at one constant power.

        Leaves what :meth:`accumulate` on each interval in turn leaves,
        float for float.
        """
        if len(dts_s) and dts_s.min() < 0:
            raise ConfigurationError("interval must be non-negative")
        if power_w < 0:
            raise ConfigurationError("power must be non-negative")
        self.energy_j = running_total(
            self.energy_j, power_w * dts_s[dts_s != 0]
        )
