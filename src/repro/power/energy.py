"""Energy accounting and combined energy/performance metrics (Section V).

Energy is the integral of power over a run; to compare configurations
without rewarding arbitrarily slow ones, the paper uses the
energy-delay-squared product (ED2P = E * D^2), the standard server-class
metric that weighs performance more heavily than EDP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..errors import ConfigurationError
from ..units import Joules, Seconds, Watts


def ed2p(energy_j: Joules, delay_s: Seconds) -> float:
    """Energy-delay-squared product, J*s^2 (the paper's metric)."""
    return energy_j * delay_s * delay_s


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
    between events; per-interval samples can optionally be kept for
    time-series figures (Figs. 14/15).
    """

    keep_samples: bool = False
    energy_j: float = 0.0
    elapsed_s: float = 0.0
    samples: List[Tuple[float, float, float]] = field(default_factory=list)
    _time_s: float = 0.0

    def accumulate(self, power_w: Watts, dt_s: Seconds) -> None:
        """Add an interval of constant power."""
        if dt_s < 0:
            raise ConfigurationError("interval must be non-negative")
        if power_w < 0:
            raise ConfigurationError("power must be non-negative")
        if dt_s == 0:
            return
        if self.keep_samples:
            self.samples.append((self._time_s, dt_s, power_w))
        self.energy_j += power_w * dt_s
        self.elapsed_s += dt_s
        self._time_s += dt_s
