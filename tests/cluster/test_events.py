"""Unit tests for the discrete-event engine."""

import pytest

from repro.cluster.events import EventLoop
from repro.errors import SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(3.0, lambda: fired.append("c"))
        loop.schedule_at(1.0, lambda: fired.append("a"))
        loop.schedule_at(2.0, lambda: fired.append("b"))
        loop.run_until(3.0)
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_fifo(self):
        loop = EventLoop()
        fired = []
        for tag in ("first", "second", "third"):
            loop.schedule_at(1.0, lambda t=tag: fired.append(t))
        loop.run_until(1.0)
        assert fired == ["first", "second", "third"]

    def test_clock_advances_with_events(self):
        loop = EventLoop()
        times = []
        loop.schedule_at(2.5, lambda: times.append(loop.clock.now()))
        loop.run_until(2.5)
        assert times == [2.5]
        assert loop.clock.now() == 2.5

    def test_schedule_after_uses_current_time(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(5.0, lambda: loop.schedule_after(2.0, lambda: fired.append(loop.clock.now())))
        loop.run_until(7.0)
        assert fired == [7.0]

    def test_scheduling_in_the_past_rejected(self):
        loop = EventLoop()
        loop.schedule_at(5.0, lambda: None)
        loop.run_until(5.0)
        with pytest.raises(SimulationError):
            loop.schedule_at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            loop.schedule_after(-1.0, lambda: None)


class TestExecution:
    def test_run_next_returns_false_when_empty(self):
        assert not EventLoop().run_next()

    def test_run_until_stops_at_deadline(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(1.0, lambda: fired.append(1))
        loop.schedule_at(5.0, lambda: fired.append(5))
        assert loop.run_until(3.0) == 1
        assert fired == [1]
        assert loop.clock.now() == 3.0
        assert loop.run_until(5.0) == 1
        assert fired == [1, 5]

    def test_run_until_fires_events_at_exact_deadline(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(3.0, lambda: fired.append(3))
        loop.run_until(3.0)
        assert fired == [3]
