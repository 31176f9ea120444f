"""Discrete-event simulation core.

A minimal event-driven simulator: a time-ordered heap of
``(time, seq, action)`` entries, where the per-simulator sequence
number makes ties at equal simulated time fire in scheduling order,
and a run-until horizon.  :mod:`repro.sim.fullstack` schedules its
state changes through it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Tuple

from repro.errors import SimulationError

__all__ = ["Simulator"]


class Simulator:
    """Event loop with a simulated clock."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heapq.heappush(self._heap,
                       (self._now + delay, next(self._seq), action))

    def run_until(self, horizon: float, max_events: int = 10_000_000) -> None:
        """Fire events until the clock passes ``horizon`` (or quiesce).

        The clock is left at ``horizon`` so time-weighted statistics can
        close their last interval.
        """
        heap = self._heap
        fired = 0
        while heap and heap[0][0] <= horizon:
            if fired >= max_events:
                raise SimulationError(
                    f"exceeded {max_events} events before horizon "
                    f"{horizon} (event storm?)"
                )
            self._now, _, action = heapq.heappop(heap)
            action()
            fired += 1
        self._now = max(self._now, horizon)
