"""Partial-order task scheduler.

"The task scheduler schedules both recovery tasks and normal tasks
according to their partial orders" (Section IV-A), repeatedly executing
``minimal(S, ≺)``.  This module provides that executor over any
:class:`~repro.workflow.precedence.PartialOrder`: it runs every element
in some linear extension, invoking a caller-supplied executor callback,
and records the order actually taken.
"""

from __future__ import annotations

import random
import time as _time
from typing import Callable, Generic, Hashable, List, Optional, Set, TypeVar

from repro.errors import CyclicOrderError
from repro.obs.events import ActionDispatched, EventBus
from repro.workflow.precedence import PartialOrder, minimal

__all__ = ["PartialOrderScheduler"]

T = TypeVar("T", bound=Hashable)


class PartialOrderScheduler(Generic[T]):
    """Executes the elements of a partial order, minimal-first.

    Parameters
    ----------
    order:
        The constraints to respect.  Checked for cycles up front.
    executor:
        Called once per element when it is dispatched.  Exceptions
        propagate to the caller of :meth:`run`; the schedule so far is
        preserved in :attr:`executed`.
    rng:
        Randomizes tie-breaking among minimal elements (the paper:
        "we randomly select one qualified result"); deterministic
        (sorted by ``repr``) when omitted.
    bus:
        Optional :class:`repro.obs.events.EventBus`; when attached,
        every dispatch publishes an
        :class:`~repro.obs.events.ActionDispatched` naming the element,
        its slot in the realized linear extension, and the
        direct-predecessor constraints its dispatch satisfied.
    clock:
        Timestamp source for published events (default
        ``time.monotonic``).
    """

    def __init__(
        self,
        order: PartialOrder[T],
        executor: Callable[[T], None],
        rng: Optional[random.Random] = None,
        bus: Optional[EventBus] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        order.check_acyclic()
        self._order = order
        self._executor = executor
        self._rng = rng
        self._bus = bus if bus is not None and bus.active else None
        self._clock = clock if clock is not None else _time.monotonic  # lint: allow[DET001] injectable clock; wall time is the live default
        self._executed: List[T] = []

    @property
    def executed(self) -> List[T]:
        """Elements dispatched so far, in dispatch order."""
        return list(self._executed)

    @property
    def pending(self) -> Set[T]:
        """Elements not yet dispatched."""
        return set(self._order.elements()) - set(self._executed)

    def step(self) -> Optional[T]:
        """Dispatch one minimal pending element; ``None`` when done."""
        pending = self.pending
        if not pending:
            return None
        # Minimality is judged against pending elements only: an element
        # whose predecessors all executed is free to run.
        candidates = [
            x
            for x in pending
            if not (self._order.direct_predecessors(x) & pending)
        ]
        if not candidates:
            raise CyclicOrderError(
                "no dispatchable element — cycle among pending tasks"
            )
        chosen = minimal(candidates, self._order, rng=self._rng)
        self._executor(chosen)
        if self._bus is not None and self._bus.active:
            self._bus.publish(ActionDispatched(
                self._clock(),
                action=str(chosen),
                position=len(self._executed),
                satisfied=tuple(sorted(
                    str(p) for p in self._order.direct_predecessors(chosen)
                )),
            ))
        self._executed.append(chosen)
        return chosen

    def run(self) -> List[T]:
        """Dispatch everything; returns the realized linear extension."""
        while self.step() is not None:
            pass
        return self.executed
