"""Events for the discrete-event simulator."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["Event"]

_event_counter = itertools.count()


@dataclass(order=True)
class Event:
    """A scheduled simulation event.

    Events order by ``(time, sequence)``: ties at equal simulated time
    fire in scheduling order, keeping runs deterministic.

    Attributes
    ----------
    time:
        Simulated firing time.
    action:
        Zero-argument callable executed when the event fires.
    label:
        Debugging label shown in traces.
    cancelled:
        A cancelled event is skipped when popped (lazy deletion).
    """

    time: float
    seq: int = field(compare=True, default_factory=lambda: next(_event_counter))
    action: Optional[Callable[[], None]] = field(compare=False, default=None)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True
