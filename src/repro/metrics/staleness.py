"""Staleness analysis.

Turns the raw :class:`~repro.cluster.convergence.StalenessSample` series
produced by a ground-truth tracker into the summary numbers experiment
E5 reports: how long replicas stayed stale, how bad the backlog got,
and when (if ever) the system became fully current.

The paper's argument (section 8.2): with push-and-no-forwarding, an
originator crash strands staleness until *repair* — staleness duration
is coupled to the failure duration; with epidemic anti-entropy,
surviving replicas forward around the failure, so staleness duration is
coupled to the propagation schedule instead.  These summaries make that
difference a number.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.convergence import StalenessSample

__all__ = ["StalenessSummary", "summarize_staleness"]


@dataclass(frozen=True)
class StalenessSummary:
    """Summary statistics of a staleness time series.

    ``first_stale_time``  — first observation with any staleness (None
                            if the system never went stale).
    ``fresh_time``        — first observation, after staleness began, at
                            which the system was fully current again
                            (None if it never recovered in the window).
    ``stale_duration``    — ``fresh_time - first_stale_time`` (None
                            while unrecovered).
    ``peak_stale_pairs``  — worst backlog observed.
    ``samples``           — number of observations summarized.
    """

    first_stale_time: float | None
    fresh_time: float | None
    stale_duration: float | None
    peak_stale_pairs: int
    samples: int


def summarize_staleness(samples: list[StalenessSample]) -> StalenessSummary:
    """Collapse a sample series into a :class:`StalenessSummary`.

    Samples must be in time order (as produced by
    :meth:`~repro.cluster.convergence.GroundTruth.observe`).
    """
    first_stale: float | None = None
    fresh: float | None = None
    peak = 0
    for sample in samples:
        peak = max(peak, sample.stale_pairs)
        if sample.stale_pairs > 0:
            if first_stale is None:
                first_stale = sample.time
            fresh = None  # went stale (again); reset any earlier recovery
        elif first_stale is not None and fresh is None:
            fresh = sample.time
    duration = (
        fresh - first_stale
        if first_stale is not None and fresh is not None
        else None
    )
    return StalenessSummary(
        first_stale_time=first_stale,
        fresh_time=fresh,
        stale_duration=duration,
        peak_stale_pairs=peak,
        samples=len(samples),
    )
