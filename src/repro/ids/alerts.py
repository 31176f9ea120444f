"""IDS alerts and the bounded queues of the recovery architecture.

Figure 2 of the paper shows two queues: the queue of IDS alerts feeding
the recovery analyzer, and the queue of recovery tasks feeding the
scheduler.  Both are finite in a real system (Section IV-E); when the
alert queue overflows, alerts are *lost* — the quantity the CTMC's loss
probability measures.

The fleet control plane (:mod:`repro.fleet`) multiplexes every tenant's
alerts through one :class:`PriorityBoundedQueue`: the same bounded
semantics, but items carry a priority class (BREACH-tenant alerts
preempt OK-tenant alerts) with FIFO order preserved *within* each
class.  Queues are not internally locked: the run loop's one thread
admits and drains them (the threading contract is in
:mod:`repro.obs.server`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Generic,
    Iterator,
    List,
    Optional,
    TypeVar,
)

from repro.errors import QueueFullError
from repro.obs.events import EventBus, QueueItemDropped
from repro.obs.perf import bump as perf_bump

__all__ = ["Alert", "BoundedQueue", "PriorityBoundedQueue"]

T = TypeVar("T")

#: Priority classes of a :class:`PriorityBoundedQueue`: the fleet's
#: BREACH, WARN and OK tenants (0 most urgent).
PRIORITY_CLASSES = 3


@dataclass(frozen=True, order=True)
class Alert:
    """One IDS alert: a task instance reported as malicious.

    Attributes
    ----------
    detected_at:
        Simulation / wall-clock time of the report (alerts order by it).
    uid:
        Uid of the reported task instance.  A false alarm names an
        innocent instance; recovery cannot tell it from a genuine
        report and treats both alike.
    """

    detected_at: float
    uid: str


class BoundedQueue(Generic[T]):
    """FIFO queue with finite capacity and loss accounting.

    ``offer`` returns ``False`` (and counts a loss) when the queue is
    full; ``push`` raises instead.  Used for both the alert queue and the
    recovery-task queue.

    Besides loss counts the queue tracks its **high-water mark** — the
    maximum simultaneous occupancy since creation — which is what the
    CTMC comparison and the metrics layer need (occupancy, not just
    losses).

    Storage is accessed only through the ``_store`` / ``_take`` /
    ``_iter_items`` primitives, so
    subclasses (:class:`PriorityBoundedQueue`) can change the queueing
    discipline without touching the capacity, loss-accounting,
    high-water, or drop-event machinery.  The queue keeps its size as a
    running count, which :meth:`offer`, :meth:`pop` and an eviction
    (:meth:`_make_room`) maintain: ``len``, truth tests and
    :attr:`full` read it without visiting the storage.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._items: Deque[T] = deque()
        self._count = 0
        self._lost = 0
        self._accepted = 0
        self._high_water = 0
        self._name = ""
        self._bus: Optional[EventBus] = None
        self._clock: Optional[Callable[[], float]] = None

    # -- storage primitives (the only methods touching the backing
    # -- container; subclasses override these) ----------------------------

    def _store(self, item: T) -> None:
        self._items.append(item)

    def _take(self) -> T:
        return self._items.popleft()

    def _iter_items(self) -> Iterator[T]:
        return iter(self._items)

    def _class_of(self, item: T) -> int:
        """Priority class of ``item`` (base queue: everything is 0)."""
        return 0

    def _make_room(self, item: T) -> bool:
        """Try to make room for ``item`` when at capacity.

        The base FIFO queue never evicts; subclasses may (priority
        preemption).  Returns ``True`` when a slot was freed, and then
        has taken the evicted item off the running count.
        """
        return False

    # -- stats -------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum number of queued items."""
        return self._capacity

    @property
    def lost(self) -> int:
        """Number of items rejected because the queue was full."""
        return self._lost

    @property
    def accepted(self) -> int:
        """Number of items successfully enqueued over the queue's life."""
        return self._accepted

    @property
    def high_water(self) -> int:
        """Maximum simultaneous occupancy since the last stats reset."""
        return self._high_water

    def instrument(self, name: str, bus: Optional[EventBus],
                   clock: Callable[[], float]) -> None:
        """Make the queue publish a typed
        :class:`~repro.obs.events.QueueItemDropped` on every rejection
        or eviction, stamped by ``clock``.

        The fleet's central scheduling queue is the one instrumented
        queue: its drops are deferrals no other event reports.  A
        :class:`~repro.system.SelfHealingSystem` leaves its own queues
        uninstrumented — a lost alert is its one ``AlertLost``, and its
        recovery queue never overflows (a scan refuses to run when it
        is full).  ``name`` labels the queue on each event;
        ``bus=None`` removes the instrumentation.
        """
        self._name = name
        self._bus = bus
        self._clock = clock

    def _note_lost(self, item: T) -> None:
        """Account one rejected (or evicted) item and publish its drop."""
        self._lost += 1
        perf_bump("queue_evictions")
        if self._bus is not None and self._clock is not None:
            self._bus.publish(QueueItemDropped(
                self._clock(), queue=self._name,
                depth=self._count, lost_total=self._lost,
                priority=self._class_of(item),
            ))

    def offer(self, item: T) -> bool:
        """Enqueue ``item`` if capacity allows; count a loss otherwise."""
        if self._count >= self._capacity and not self._make_room(item):
            self._note_lost(item)
            return False
        self._store(item)
        self._count += 1
        self._accepted += 1
        if self._count > self._high_water:
            self._high_water = self._count
        return True

    def push(self, item: T) -> None:
        """Enqueue ``item`` or raise :class:`QueueFullError`.

        ``push`` never evicts — a full queue is an error even for
        priority queues (callers that want preemption use
        :meth:`offer`).
        """
        if self._count >= self._capacity:
            # push's failure is an error, not a loss
            raise QueueFullError(
                f"queue full (capacity {self._capacity})"
            )
        self.offer(item)

    def pop(self) -> T:
        """Dequeue the next item (oldest; for priority queues, oldest
        of the most urgent class)."""
        item = self._take()
        self._count -= 1
        return item

    @property
    def full(self) -> bool:
        """True when at capacity."""
        return self._count >= self._capacity

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __iter__(self) -> Iterator[T]:
        return self._iter_items()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self._count}/{self._capacity}, "
            f"lost={self._lost})"
        )


class PriorityBoundedQueue(BoundedQueue[T]):
    """Bounded queue with priority classes and preemption.

    Items are assigned a class in ``[0, PRIORITY_CLASSES)`` by
    ``priority_of`` (lower class number = more urgent); :meth:`pop`
    serves the oldest item of the most urgent non-empty class, and
    order *within* a class is strictly FIFO.  Capacity, loss
    accounting, ``high_water`` and drop-event instrumentation behave
    exactly as in :class:`BoundedQueue`; the published
    :class:`~repro.obs.events.QueueItemDropped` additionally carries
    the rejected item's class.

    An arrival into a full queue may preempt: the *newest* item of the
    least urgent class less urgent than the arrival is evicted (counted
    as a loss of the evicted item's class) and the arrival admitted.
    An arrival that is not more urgent than everything's tail is
    rejected as usual — total occupancy never exceeds ``capacity``.
    """

    def __init__(
        self,
        capacity: int,
        priority_of: Optional[Callable[[T], int]] = None,
    ) -> None:
        super().__init__(capacity)
        self._priority_of = priority_of
        self._lanes: List[Deque[T]] = [
            deque() for _ in range(PRIORITY_CLASSES)
        ]

    # -- storage primitives ------------------------------------------------

    def _class_of(self, item: T) -> int:
        cls = self._priority_of(item) if self._priority_of else 0
        if not 0 <= cls < PRIORITY_CLASSES:
            raise ValueError(
                f"priority class {cls} outside [0, {PRIORITY_CLASSES})"
            )
        return cls

    def _store(self, item: T) -> None:
        cls = self._class_of(item)
        self._lanes[cls].append(item)

    def _take(self) -> T:
        for lane in self._lanes:
            if lane:
                return lane.popleft()
        raise IndexError("pop from an empty PriorityBoundedQueue")

    def _iter_items(self) -> Iterator[T]:
        """Items in drain order: class by class, FIFO within a class."""
        for lane in self._lanes:
            for item in lane:
                yield item

    def _make_room(self, item: T) -> bool:
        """Preempt the newest least-urgent item."""
        cls = self._class_of(item)
        for victim_cls in range(PRIORITY_CLASSES - 1, cls, -1):
            lane = self._lanes[victim_cls]
            if lane:
                victim = lane.pop()  # newest of the class: least regret
                self._count -= 1
                self._note_lost(victim)
                return True
        return False
