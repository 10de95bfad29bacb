"""Minimal discrete-event engine for the server simulation.

The system model is *fluid*: between events every running process makes
progress at a constant rate and the chip draws constant power, so the
simulation only needs to visit the instants where rates change — job
arrivals, job completions, monitor ticks and actuation points. The engine
is a deterministic time-ordered queue with FIFO tie-breaking.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any

from ..errors import SimulationError


@dataclass(frozen=True, order=True, slots=True)
class Event:
    """One scheduled event; ordering is (time, insertion sequence)."""

    time_s: float
    seq: int
    kind: str = field(compare=False)
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """Time-ordered event queue with stable FIFO tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self._cancelled: set[int] = set()
        self._pending: set[int] = set()
        #: Lifetime schedule/cancel counts; plain ints so the hot loop
        #: stays allocation-free. The simulator flushes them into the
        #: telemetry registry at end of run.
        self.scheduled_total = 0
        self.cancelled_total = 0

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return len(self) > 0

    def schedule(self, time_s: float, kind: str, payload: Any = None) -> Event:
        """Add an event; returns it (its ``seq`` can cancel it later)."""
        if time_s < 0:
            raise SimulationError(f"cannot schedule at negative time {time_s}")
        event = Event(time_s=time_s, seq=next(self._seq), kind=kind,
                      payload=payload)
        heapq.heappush(self._heap, event)
        self._pending.add(event.seq)
        self.scheduled_total += 1
        return event

    def cancel(self, event: Event) -> None:
        """Lazily cancel a scheduled event (no-op if already popped)."""
        if event.seq in self._pending:
            self._cancelled.add(event.seq)
            self._pending.discard(event.seq)
            self.cancelled_total += 1

    def pop(self) -> Event:
        """Remove and return the next live event."""
        self._drop_cancelled()
        if not self._heap:
            raise SimulationError("pop from empty event queue")
        event = heapq.heappop(self._heap)
        self._pending.discard(event.seq)
        return event

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0].seq in self._cancelled:
            self._cancelled.discard(self._heap[0].seq)
            heapq.heappop(self._heap)
        if not self._pending:
            # Every remaining heap entry is a cancelled corpse. Without
            # this, a queue drained by `while queue:` loops (which stop
            # on len(_pending) == 0) accumulates stale seqs forever.
            if self._heap:
                self._heap.clear()
            if self._cancelled:
                self._cancelled.clear()
        elif len(self._cancelled) > 64 and (
            len(self._cancelled) * 2 > len(self._heap)
        ):
            # Cancelled events buried under live ones can never drain
            # through the lazy top-of-heap check; compact once corpses
            # dominate so the sets stay bounded by the live event count.
            self._heap = [
                event
                for event in self._heap
                if event.seq not in self._cancelled
            ]
            heapq.heapify(self._heap)
            self._cancelled.clear()


class SimClock:
    """Monotonic simulation clock."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulation time, seconds."""
        return self._now

    def advance_to(self, time_s: float) -> float:
        """Move the clock forward; returns the elapsed interval."""
        if time_s < self._now - 1e-9:
            raise SimulationError(
                f"clock cannot move backwards ({self._now} -> {time_s})"
            )
        dt = max(0.0, time_s - self._now)
        self._now = max(self._now, time_s)
        return dt
