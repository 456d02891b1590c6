"""Simulated time.

Everything in this library runs on simulated clocks so experiments are
deterministic and independent of host speed.  A :class:`SimClock` is a
monotonically advancing counter of abstract time units; the discrete-
event engine (:mod:`repro.cluster.events`) owns one and advances it as
events fire, while standalone components (the staleness tracker, the
Lotus baseline's last-propagation timestamps) accept any object with a
``now()`` method.
"""

from __future__ import annotations

from repro.errors import SimulationError

__all__ = ["SimClock"]


class SimClock:
    """A monotone simulated clock; only its owner may advance it."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Move time forward to ``t``; moving backwards is an error."""
        if t < self._now:
            raise SimulationError(
                f"clock cannot run backwards: {t} < {self._now}"
            )
        self._now = t
