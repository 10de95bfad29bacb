"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError`, so
client code can catch the whole family with a single ``except`` clause.
Fault-model exceptions (:class:`VoltageFault` and its subclasses) model the
abnormal behaviours the paper observes when a chip operates below its safe
Vmin (Section III.B): silent data corruptions, crashes, hangs and process
timeouts.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro package."""


class ConfigurationError(ReproError):
    """An invalid platform, workload or policy configuration was requested."""


class VoltageRangeError(ConfigurationError):
    """A voltage outside the regulator's supported range was requested."""


class FrequencyRangeError(ConfigurationError):
    """A frequency outside the chip's supported range was requested."""


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


class VoltageFault(ReproError):
    """Base class for abnormal behaviours below the safe Vmin.

    The paper (Section III.A) counts a voltage level as *unsafe* when any
    of these behaviours occurs: hardware error notifications, silent data
    corruptions, process timeouts, system crashes or thread hangs.
    """

    #: Short machine-readable tag used in characterization reports.
    kind = "fault"

    def __init__(self, voltage_mv: float, message: str = ""):
        self.voltage_mv = voltage_mv
        text = message or (
            f"{self.kind} at {voltage_mv:.0f} mV (below safe Vmin)"
        )
        super().__init__(text)


class SilentDataCorruption(VoltageFault):
    """Program completed but produced a wrong result (SDC)."""

    kind = "sdc"


class SystemCrash(VoltageFault):
    """The whole system crashed and must be power-cycled."""

    kind = "crash"


class ThreadHang(VoltageFault):
    """One or more threads hung; the run never completes."""

    kind = "hang"


class ProcessTimeout(VoltageFault):
    """The process exceeded its timeout budget."""

    kind = "timeout"
