"""Tests for the discrete-event simulation core."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.simulator import Simulator


class TestEvent:
    def test_orders_by_time_then_sequence(self):
        a = Event(time=1.0)
        b = Event(time=1.0)
        c = Event(time=0.5)
        assert c < a < b  # same time → earlier scheduling wins

    def test_cancel(self):
        e = Event(time=1.0)
        assert not e.cancelled
        e.cancel()
        assert e.cancelled


class TestSimulator:
    def test_fires_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("late"))
        sim.schedule(1.0, lambda: fired.append("early"))
        while sim.step():
            pass
        assert fired == ["early", "late"]
        assert sim.now == 2.0
        assert sim.events_fired == 2

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for name in ("first", "second", "third"):
            sim.schedule(1.0, lambda n=name: fired.append(n))
        while sim.step():
            pass
        assert fired == ["first", "second", "third"]

    def test_cancelled_events_skipped(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(1.0, lambda: fired.append("keep"))
        drop = sim.schedule(0.5, lambda: fired.append("drop"))
        drop.cancel()
        while sim.step():
            pass
        assert fired == ["keep"]

    def test_lazy_deletion_skips_cancelled_head_in_one_step(self):
        """A cancelled event stays in the heap until popped; one step()
        must discard it silently and fire the next live event."""
        sim = Simulator()
        fired = []
        dead = sim.schedule(0.5, lambda: fired.append("dead"))
        sim.schedule(1.0, lambda: fired.append("live"))
        dead.cancel()
        assert sim.pending == 1  # the cancelled head is not pending
        assert sim.step()  # single step: pops dead, fires live
        assert fired == ["live"]
        assert sim.events_fired == 1  # the skipped event is not counted
        assert sim.now == 1.0  # the clock never visits the dead time

    def test_step_false_when_only_cancelled_events_remain(self):
        sim = Simulator()
        fired = []
        for delay in (0.5, 1.0, 1.5):
            sim.schedule(delay, lambda: fired.append(delay)).cancel()
        assert not sim.step()
        assert fired == [] and sim.events_fired == 0
        assert sim.now == 0.0

    def test_cancel_after_pop_order_is_established(self):
        """Cancelling mid-run: an event cancelled by an earlier event's
        action must not fire even though it is already in the heap."""
        sim = Simulator()
        fired = []
        victim = sim.schedule(2.0, lambda: fired.append("victim"))
        sim.schedule(1.0, lambda: victim.cancel())
        sim.run_until(10.0)
        assert fired == []
        assert sim.events_fired == 1

    def test_run_until_discards_cancelled_without_counting(self):
        """Lazily-deleted events must not count against max_events."""
        sim = Simulator()
        for _ in range(5):
            sim.schedule(0.5, lambda: None).cancel()
        live = []
        sim.schedule(1.0, lambda: live.append(sim.now))
        sim.run_until(2.0, max_events=1)  # budget covers the live one only
        assert live == [1.0]
        assert sim.pending == 0

    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(2.0)
        assert fired == [1]
        assert sim.now == 2.0
        assert sim.pending == 1

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
