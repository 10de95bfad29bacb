"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError`, so
client code can catch the whole family with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro package."""


class ConfigurationError(ReproError):
    """An invalid platform, workload or policy configuration was requested."""


class VoltageRangeError(ConfigurationError):
    """A voltage outside the regulator's supported range was requested."""


class PlacementError(ReproError):
    """The placement engine could not satisfy an allocation request."""


class SchedulingError(ReproError):
    """The scheduler could not find cores for a runnable process."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class CharacterizationError(ReproError):
    """A Vmin characterization campaign was misconfigured."""


class ExperimentError(ReproError):
    """An orchestrated experiment failed; names it and keeps the cause."""

    def __init__(self, experiment: str, cause: BaseException):
        # Both in ``args``, so the error pickles back from a pool worker.
        super().__init__(experiment, cause)
        self.experiment = experiment
        self.cause = cause

    def __str__(self) -> str:
        return f"{self.experiment}: {self.cause}"
