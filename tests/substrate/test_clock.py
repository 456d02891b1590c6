"""Unit tests for simulated clocks."""

import pytest

from repro.errors import SimulationError
from repro.substrate.clock import SimClock


class TestSimClock:
    def test_starts_at_given_time(self):
        assert SimClock().now() == 0.0
        assert SimClock(start=5.0).now() == 5.0

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(3.5)
        assert clock.now() == 3.5

    def test_advance_to_same_time_is_allowed(self):
        clock = SimClock(start=2.0)
        clock.advance_to(2.0)
        assert clock.now() == 2.0

    def test_backwards_rejected(self):
        clock = SimClock(start=2.0)
        with pytest.raises(SimulationError):
            clock.advance_to(1.0)

    def test_advance_by(self):
        """A relative step is ``advance_to(now() + dt)``."""
        clock = SimClock()
        clock.advance_to(clock.now() + 1.5)
        clock.advance_to(clock.now() + 0.0)
        assert clock.now() == 1.5

    def test_negative_advance_rejected(self):
        clock = SimClock()
        with pytest.raises(SimulationError):
            clock.advance_to(clock.now() - 1.0)

