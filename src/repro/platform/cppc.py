"""Model of the ACPI CPPC frequency-control interface (Section II.B).

Both chips implement the *Collaborative Processor Performance Control*
specification of ACPI 5.1: software requests performance on an abstract
continuous scale and the platform realises it by interleaving discrete
clock configurations. Two hardware mechanisms implement the requested
ratio relative to the input clock:

* **clock skipping** for ratios above or below 1/2, and
* **clock division** for the exact 1/2 ratio.

Because a skipped clock's electrical behaviour is governed by the highest
frequency present in the interleave, the *Vmin-relevant* frequency class of
a request can differ from its average frequency. On X-Gene 2, a request at
or below 3/8 of fmax (0.9 GHz) keeps the interleave entirely at or below
the division point, unlocking the large (~12 %) Vmin reduction; a request
of exactly fmax/2 interleaves *around* the half point and only earns the
small (~3 %) clock-skipping reduction. On X-Gene 3 the division behaviour
was never observed below 1.5 GHz, so every setting at or below fmax/2
shares the half-clock Vmin.

This module translates frequency requests into per-PMD effective settings;
:meth:`~repro.platform.specs.ChipSpec.frequency_class` names the class
of a setting, which the Vmin model looks up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..errors import ConfigurationError
from .specs import ChipSpec


@dataclass
class FrequencyTransition:
    """Record of one per-PMD frequency change."""

    time_s: float
    pmd_id: int
    from_hz: int
    to_hz: int


class CppcController:
    """Per-PMD frequency controller with CPPC request semantics.

    The controller owns the authoritative per-PMD frequency state of a
    chip; :class:`repro.platform.chip.Chip` delegates to it.
    """

    def __init__(self, spec: ChipSpec):
        self.spec = spec
        self._freqs: List[int] = [spec.fmax_hz] * spec.n_pmds
        self.transitions: List[FrequencyTransition] = []

    def frequency_of(self, pmd_id: int) -> int:
        """Effective frequency of one PMD in Hz."""
        self._check_pmd(pmd_id)
        return self._freqs[pmd_id]

    def frequencies(self) -> Tuple[int, ...]:
        """Effective frequencies of all PMDs, indexed by PMD id."""
        return tuple(self._freqs)

    def request(self, pmd_id: int, freq_hz: float, time_s: float = 0.0) -> int:
        """Request a frequency for one PMD; returns the applied setting.

        Arbitrary requests snap to the chip's 1/8-of-fmax steps, mirroring
        CPPC's continuous-scale abstraction over discrete hardware ratios.
        """
        self._check_pmd(pmd_id)
        target = self.spec.nearest_frequency(freq_hz)
        previous = self._freqs[pmd_id]
        if target != previous:
            self._freqs[pmd_id] = target
            self.transitions.append(
                FrequencyTransition(time_s, pmd_id, previous, target)
            )
        return target

    def transition_count(self) -> int:
        """Number of frequency changes applied so far."""
        return len(self.transitions)

    def _check_pmd(self, pmd_id: int) -> None:
        if not 0 <= pmd_id < self.spec.n_pmds:
            raise ConfigurationError(
                f"{self.spec.name}: PMD {pmd_id} out of range "
                f"(chip has {self.spec.n_pmds})"
            )
