"""A minimal deterministic discrete-event engine.

The cluster simulation needs just enough machinery to interleave
anti-entropy sessions, user updates, crashes and recoveries on a single
simulated timeline: a priority queue of timestamped actions with stable
FIFO ordering among simultaneous events (determinism matters more here
than features — every experiment must reproduce bit-for-bit from its
seed).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError
from repro.substrate.clock import SimClock

__all__ = ["EventLoop"]


@dataclass(order=True)
class _Entry:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)


class EventLoop:
    """Timestamp-ordered action queue over a :class:`SimClock`.

    Ties are broken by scheduling order (FIFO), so runs are fully
    deterministic for a fixed event sequence.
    """

    def __init__(self, clock: SimClock | None = None):
        self.clock = clock if clock is not None else SimClock()
        self._queue: list[_Entry] = []
        self._seq = 0

    def schedule_at(self, time: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` at absolute simulated time ``time``."""
        if time < self.clock.now():
            raise SimulationError(
                f"cannot schedule event at {time} before now ({self.clock.now()})"
            )
        heapq.heappush(self._queue, _Entry(time, self._seq, action))
        self._seq += 1

    def schedule_after(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` ``delay >= 0`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self.schedule_at(self.clock.now() + delay, action)

    def run_next(self) -> bool:
        """Fire the earliest pending event; False when the queue is empty."""
        if not self._queue:
            return False
        entry = heapq.heappop(self._queue)
        self.clock.advance_to(entry.time)
        entry.action()
        return True

    def run_until(self, time: float) -> int:
        """Fire all events with timestamp <= ``time``; returns the count.

        The clock finishes at exactly ``time`` even if the last event was
        earlier (or none fired).
        """
        fired = 0
        while self._queue and self._queue[0].time <= time:
            self.run_next()
            fired += 1
        self.clock.advance_to(max(self.clock.now(), time))
        return fired
