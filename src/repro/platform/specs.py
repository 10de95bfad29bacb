"""Specifications of the modelled micro-server platforms (paper Table I).

Two ARMv8 server chips are modelled:

* **X-Gene 2** — 8 cores (4 PMDs), 2.4 GHz, 28 nm bulk CMOS, 980 mV
  nominal, 35 W TDP, 8 MB L3 in a separate domain.
* **X-Gene 3** — 32 cores (16 PMDs), 3.0 GHz, 16 nm FinFET, 870 mV
  nominal, 125 W TDP, 32 MB L3 in the PCP domain.

Both chips group cores in pairs (PMDs — *Processor MoDules*). Each PMD has
its own clock domain; all cores share a single supply rail (the PCP
domain), so the voltage is one knob for the whole chip while frequency is
one knob per PMD (Section II.A).

Frequency is settable in 1/8 steps of the maximum clock. Per Section II.B,
the *effective* Vmin behaviour of a frequency setting depends on how the
hardware realises it:

* ratios above 1/2 use **clock skipping** on the input clock and share the
  Vmin of the maximum frequency (``FrequencyClass.HIGH``);
* the 1/2 ratio uses **clock skipping around the half point** under CPPC
  frequency interleaving (``FrequencyClass.SKIP``), worth ~3 % of Vmin;
* ratios below 1/2 engage **clock division** on X-Gene 2 only
  (``FrequencyClass.DIVIDE``, ~12 % further Vmin reduction at 0.9 GHz);
  on X-Gene 3 the CPPC interleave never drops to clock division, so all
  sub-half settings stay in the ``SKIP`` class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Tuple

from ..errors import ConfigurationError, FrequencyRangeError

KIB = 1024
MIB = 1024 * KIB

#: Cache line size used when converting L3 access rates to bandwidth.
CACHE_LINE_BYTES = 64


class FrequencyClass(enum.Enum):
    """Vmin-relevant class of a frequency setting (Section II.B)."""

    #: Above half of the maximum clock: clock skipping, Vmin as at fmax.
    HIGH = "high"
    #: At half the maximum clock (or below, on chips without the clock
    #: division path): one clock-skipping step of Vmin reduction (~3 %).
    SKIP = "skip"
    #: Below half the maximum clock with clock division engaged
    #: (X-Gene 2 only): the large (~12 %) Vmin reduction.
    DIVIDE = "divide"


@dataclass(frozen=True)
class CacheSpec:
    """Cache sizes of the chip (paper Table I)."""

    l1i_bytes: int
    l1d_bytes: int
    l2_bytes_per_pmd: int
    l3_bytes: int
    #: True when the L3 lives inside the PCP power domain (X-Gene 3).
    l3_in_pcp_domain: bool


@dataclass(frozen=True)
class ChipSpec:
    """Static description of a chip model.

    Instances of this class are immutable; the mutable runtime state
    (current voltage, per-PMD frequencies) lives in
    :class:`repro.platform.chip.Chip`.
    """

    name: str
    n_cores: int
    cores_per_pmd: int
    fmax_hz: int
    fmin_hz: int
    nominal_voltage_mv: int
    #: Lowest voltage the SLIMpro regulator accepts, in mV.
    min_voltage_mv: int
    tdp_w: float
    technology_nm: int
    caches: CacheSpec
    #: Sustainable DRAM + L3 bandwidth of the memory subsystem, used by
    #: the contention model, in bytes per second.
    memory_bandwidth_bps: float
    #: Whether sub-half frequency requests engage clock division
    #: (True on X-Gene 2, False on X-Gene 3 — Section II.B).
    clock_division_below_half: bool = True
    #: Number of frequency steps between fmin and fmax (1/8 of fmax each).
    n_freq_steps: int = 8

    def __post_init__(self) -> None:
        if self.n_cores % self.cores_per_pmd:
            raise ConfigurationError(
                f"{self.name}: {self.n_cores} cores do not divide into "
                f"PMDs of {self.cores_per_pmd}"
            )
        if self.fmin_hz >= self.fmax_hz:
            raise ConfigurationError(
                f"{self.name}: fmin {self.fmin_hz} must be below fmax "
                f"{self.fmax_hz}"
            )

    @property
    def n_pmds(self) -> int:
        """Number of PMDs (core pairs) on the chip."""
        return self.n_cores // self.cores_per_pmd

    @property
    def half_frequency_hz(self) -> int:
        """The half-clock setting (clock-division point on X-Gene 2)."""
        return self.fmax_hz // 2

    def frequency_steps(self) -> Tuple[int, ...]:
        """All supported frequency settings, ascending (1/8 steps of fmax)."""
        return _frequency_grid(self.fmax_hz, self.n_freq_steps, self.fmin_hz)[0]

    def validate_frequency(self, freq_hz: int) -> None:
        """Raise :class:`FrequencyRangeError` for an unsupported setting."""
        if freq_hz not in self.frequency_steps():
            supported = ", ".join(str(f) for f in self.frequency_steps())
            raise FrequencyRangeError(
                f"{self.name}: {freq_hz} Hz is not a supported step "
                f"(supported: {supported})"
            )

    def nearest_frequency(self, freq_hz: float) -> int:
        """Snap an arbitrary request to the nearest supported step."""
        steps, exact = _frequency_grid(
            self.fmax_hz, self.n_freq_steps, self.fmin_hz
        )
        step = exact.get(freq_hz)
        if step is not None:
            return step
        return min(steps, key=lambda f: (abs(f - freq_hz), f))

    def frequency_class(self, freq_hz: int) -> FrequencyClass:
        """Vmin-relevant class of a frequency setting (Section II.B)."""
        half = self.half_frequency_hz
        if freq_hz > half:
            return FrequencyClass.HIGH
        if freq_hz == half:
            return FrequencyClass.SKIP
        if self.clock_division_below_half:
            return FrequencyClass.DIVIDE
        return FrequencyClass.SKIP

    def pmd_of_core(self, core_id: int) -> int:
        """PMD index that owns ``core_id``."""
        if not 0 <= core_id < self.n_cores:
            raise ConfigurationError(
                f"{self.name}: core {core_id} out of range"
            )
        return core_id // self.cores_per_pmd

    def cores_of_pmd(self, pmd_id: int) -> Tuple[int, ...]:
        """Core ids belonging to PMD ``pmd_id``."""
        if not 0 <= pmd_id < self.n_pmds:
            raise ConfigurationError(f"{self.name}: PMD {pmd_id} out of range")
        base = pmd_id * self.cores_per_pmd
        return tuple(range(base, base + self.cores_per_pmd))


@lru_cache(maxsize=64)
def _frequency_grid(
    fmax_hz: int, n_freq_steps: int, fmin_hz: int
) -> Tuple[Tuple[int, ...], Mapping[int, int]]:
    """A chip's frequency steps, ascending, and each step keyed by itself.

    Memoized by the three spec fields it depends on, so CPPC requests
    stop rebuilding the tuple and :class:`ChipSpec` itself stays free of
    derived state (its fields key the Vmin cache). Both parts are
    immutable, so every caller can share them.
    """
    step = fmax_hz // n_freq_steps
    steps = tuple(
        step * i for i in range(1, n_freq_steps + 1) if step * i >= fmin_hz
    )
    return steps, MappingProxyType({f: f for f in steps})


def xgene2_spec() -> ChipSpec:
    """X-Gene 2: 8-core, 28 nm, 2.4 GHz, 980 mV nominal (Table I).

    The numbers live in the declarative bundle ``platform/defs/xgene2.toml``;
    this factory is kept as the stable programmatic entry point.
    """
    return get_spec("xgene2")


def xgene3_spec() -> ChipSpec:
    """X-Gene 3: 32-core, 16 nm FinFET, 3.0 GHz, 870 mV nominal (Table I).

    The numbers live in the declarative bundle ``platform/defs/xgene3.toml``;
    this factory is kept as the stable programmatic entry point.
    """
    return get_spec("xgene3")


def get_spec(name: str) -> ChipSpec:
    """Chip of a registered platform bundle, by key or display name.

    Shorthand for ``get_platform(name).spec``
    (:mod:`repro.platform.registry`).
    """
    from .registry import get_platform

    return get_platform(name).spec
