"""Unit tests for staleness summarization."""

from repro.cluster.convergence import StalenessSample
from repro.metrics.staleness import summarize_staleness


def samples(*pairs):
    return [StalenessSample(float(t), stale, 1 if stale else 0) for t, stale in pairs]


class TestSummaries:
    def test_never_stale(self):
        summary = summarize_staleness(samples((1, 0), (2, 0)))
        assert summary.first_stale_time is None
        assert summary.fresh_time is None
        assert summary.stale_duration is None
        assert summary.peak_stale_pairs == 0

    def test_stale_then_recovered(self):
        summary = summarize_staleness(samples((1, 0), (2, 5), (3, 2), (4, 0), (5, 0)))
        assert summary.first_stale_time == 2.0
        assert summary.fresh_time == 4.0
        assert summary.stale_duration == 2.0
        assert summary.peak_stale_pairs == 5

    def test_stale_never_recovered(self):
        summary = summarize_staleness(samples((1, 3), (2, 3)))
        assert summary.first_stale_time == 1.0
        assert summary.fresh_time is None
        assert summary.stale_duration is None

    def test_relapse_resets_recovery(self):
        """Staleness that returns after a recovery: only a final,
        lasting recovery counts."""
        summary = summarize_staleness(
            samples((1, 2), (2, 0), (3, 4), (4, 0))
        )
        assert summary.first_stale_time == 1.0
        assert summary.fresh_time == 4.0
        assert summary.stale_duration == 3.0

    def test_empty_series(self):
        summary = summarize_staleness([])
        assert summary.samples == 0
        assert summary.first_stale_time is None
