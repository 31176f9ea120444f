"""Tests for the discrete-event simulation core."""

import pytest

from repro.errors import SimulationError
from repro.sim.simulator import Simulator


class TestSimulator:
    def test_fires_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("late"))
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.run_until(2.0)
        assert fired == ["early", "late"]
        assert sim.now == 2.0

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for name in ("first", "second", "third"):
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run_until(1.0)
        assert fired == ["first", "second", "third"]

    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run_until(6.0)  # the later event is still scheduled
        assert fired == [1, 5]
        assert sim.now == 6.0

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if sim.now < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_event_storm_guard(self):
        sim = Simulator()

        def storm():
            sim.schedule(0.0, storm)

        sim.schedule(0.0, storm)
        with pytest.raises(SimulationError, match="exceeded"):
            sim.run_until(1.0, max_events=1000)
