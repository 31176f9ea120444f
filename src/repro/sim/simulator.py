"""Discrete-event simulation core.

A minimal but complete event-driven simulator: a time-ordered event heap,
deterministic tie-breaking, lazy cancellation, and run-until horizons.
Higher layers (:mod:`repro.sim.ctmc_sim`, :mod:`repro.sim.recovery_sim`)
schedule their state changes through it.
"""

from __future__ import annotations

import heapq
from typing import Callable, List

from repro.errors import SimulationError
from repro.sim.events import Event

__all__ = ["Simulator"]


class Simulator:
    """Event loop with a simulated clock."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._now = 0.0
        self._fired = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far."""
        return self._fired

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events."""
        return sum(1 for e in self._heap if not e.cancelled)

    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        label: str = "",
    ) -> Event:
        """Schedule ``action`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        event = Event(time=self._now + delay, action=action, label=label)
        heapq.heappush(self._heap, event)
        return event

    def step(self) -> bool:
        """Fire the next event; ``False`` when the heap is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = event.time
            self._fired += 1
            if event.action is not None:
                event.action()
            return True
        return False

    def run_until(self, horizon: float, max_events: int = 10_000_000) -> None:
        """Fire events until the clock passes ``horizon`` (or quiesce).

        The clock is left at ``horizon`` so time-weighted statistics can
        close their last interval.
        """
        fired = 0
        while self._heap:
            head = self._heap[0]
            if head.cancelled:
                heapq.heappop(self._heap)
                continue
            if head.time > horizon:
                break
            if fired >= max_events:
                raise SimulationError(
                    f"exceeded {max_events} events before horizon "
                    f"{horizon} (event storm?)"
                )
            self.step()
            fired += 1
        self._now = max(self._now, horizon)
