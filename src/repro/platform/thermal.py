"""First-order thermal model of the package (environment extension).

The paper names *environmental factors* among the static-variation
sources behind voltage guardbands (Section I) and characterizes its
machines at one operating temperature. This model adds the missing
dimension: junction temperature follows an RC response toward the
steady state ``ambient + R_th * power``, leakage grows exponentially
with temperature, and the safe Vmin drifts upward a fraction of a
millivolt per degree.

The model is **off by default** — every paper-calibrated number in this
repository is reported at the calibration temperature — and is switched
on by giving a lane of the system simulator a :class:`ThermalModel`
(:class:`repro.sim.system.SimLane`). The thermal-margin study
(`experiments.thermal_study`) uses it to ask how much extra guard a
table characterized at one temperature needs when the machine runs
hot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from .specs import ChipSpec


@dataclass(frozen=True)
class ThermalParams:
    """Package thermal constants of one platform."""

    #: Junction-to-ambient thermal resistance, degC per watt.
    resistance_c_per_w: float
    #: RC time constant of the package + heatsink, seconds.
    time_constant_s: float
    #: Temperature at which power/Vmin tables were calibrated, degC.
    calibration_c: float = 55.0
    #: Default ambient, degC.
    ambient_c: float = 25.0

    def __post_init__(self) -> None:
        if self.resistance_c_per_w <= 0 or self.time_constant_s <= 0:
            raise ConfigurationError("thermal constants must be positive")


#: Leakage grows ~2x per 35 degC: exp(k*dT) with k = ln(2)/35.
LEAKAGE_TEMP_COEFF_PER_C = 0.0198

#: Safe-Vmin drift with junction temperature, mV per degC.
VMIN_TEMP_SENSITIVITY_MV_PER_C = 0.35


class ThermalModel:
    """Exponential (RC) junction-temperature tracker."""

    def __init__(
        self,
        spec: ChipSpec,
        params: Optional[ThermalParams] = None,
        ambient_c: Optional[float] = None,
    ):
        if params is None:
            from .registry import model_for_spec

            params = model_for_spec(spec).thermal
        self.spec = spec
        self.params = params
        self.ambient_c = (
            ambient_c if ambient_c is not None else params.ambient_c
        )
        self._temperature_c = self.ambient_c

    @property
    def temperature_c(self) -> float:
        """Current junction temperature, degC."""
        return self._temperature_c

    def steady_state_c(self, power_w: float) -> float:
        """Equilibrium temperature at constant power."""
        if power_w < 0:
            raise ConfigurationError("power must be non-negative")
        return self.ambient_c + self.params.resistance_c_per_w * power_w

    def step(self, power_w: float, dt_s: float) -> float:
        """Advance the temperature over ``dt_s`` at constant power."""
        if dt_s < 0:
            raise ConfigurationError("dt must be non-negative")
        import math

        target = self.steady_state_c(power_w)
        decay = math.exp(-dt_s / self.params.time_constant_s)
        self._temperature_c = target + (self._temperature_c - target) * decay
        return self._temperature_c

    # -- derived effects ----------------------------------------------------

    def leakage_multiplier(
        self, temperature_c: Optional[float] = None
    ) -> float:
        """Leakage scaling relative to the calibration temperature."""
        import math

        temp = (
            temperature_c
            if temperature_c is not None
            else self._temperature_c
        )
        return math.exp(
            LEAKAGE_TEMP_COEFF_PER_C * (temp - self.params.calibration_c)
        )

    def vmin_shift_mv(self, temperature_c: Optional[float] = None) -> float:
        """Safe-Vmin shift vs the calibration temperature, in mV.

        Positive when hotter than calibration: timing degrades and the
        rail needs more headroom. (Never negative: cold chips keep the
        characterized table — a conservative choice.)
        """
        temp = (
            temperature_c
            if temperature_c is not None
            else self._temperature_c
        )
        return max(
            0.0,
            VMIN_TEMP_SENSITIVITY_MV_PER_C
            * (temp - self.params.calibration_c),
        )
