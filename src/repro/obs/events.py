"""Typed pipeline events and the process-local event bus.

One frozen dataclass per observable happening in the Figure 2
architecture.  Every event carries ``time`` — simulated or wall-clock
seconds, whichever clock the publisher uses; the bus never looks at it.

Publishers hold an ``Optional[EventBus]`` and guard every emission with
``if bus is not None`` (and, for events that are costly to build, with
:attr:`EventBus.active`), so un-instrumented runs pay a single ``None``
check per site.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

__all__ = [
    "ObsEvent",
    "AlertEnqueued",
    "AlertLost",
    "UnitEmitted",
    "StateTransition",
    "HealStarted",
    "HealFinished",
    "TaskUndone",
    "TaskRedone",
    "NormalTaskRefused",
    "UndoDecision",
    "RedoDecision",
    "OrderConstraint",
    "realized_action",
    "EventTrace",
    "trace_time",
    "QueueItemDropped",
    "SloTransition",
    "DriftDetected",
    "ConformanceViolation",
    "EVENT_TYPES",
    "event_from_dict",
    "EventBus",
    "EventRecorder",
]


@dataclass(frozen=True)
class ObsEvent:
    """Base class of all pipeline events."""

    time: float

    @property
    def kind(self) -> str:
        """The event's type name (``AlertLost``, ``UnitEmitted``, ...)."""
        return type(self).__name__

    def to_dict(self) -> Dict[str, Any]:
        """Flat dict form (used by the JSONL exporter)."""
        out: Dict[str, Any] = {"event": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out


@dataclass(frozen=True)
class AlertEnqueued(ObsEvent):
    """An IDS alert was accepted into the alert queue."""

    uid: str
    queue_depth: int


@dataclass(frozen=True)
class AlertLost(ObsEvent):
    """An IDS alert was rejected by a full alert queue (Definition 3)."""

    uid: str
    queue_depth: int


@dataclass(frozen=True)
class UnitEmitted(ObsEvent):
    """A scan moved one alert into the recovery-task queue as a unit of
    recovery tasks: the one event of a scan.

    ``queue_depth`` is the recovery queue's occupancy after the push (1
    + the units already outstanding); ``uid`` the scanned alert's
    instance uid, ``""`` where the publisher has none (the Gillespie
    simulator).  A scan decides nothing, so the event carries no sets:
    the batch heal publishes the Theorem 1/2 decisions it runs.  Fields
    older flight logs carry (``units``, ``claimed*``) are ignored on
    load.
    """

    queue_depth: int
    uid: str = ""


@dataclass(frozen=True)
class StateTransition(ObsEvent):
    """The system moved between Section IV-C states.

    ``old``/``new`` are state names; for simulators with a richer state
    space (the STG's ``(a, r)`` pairs) they hold the full state string
    and ``old_category``/``new_category`` hold NORMAL/SCAN/RECOVERY.
    """

    old: str
    new: str
    old_category: str = ""
    new_category: str = ""

    @property
    def category_from(self) -> str:
        """Category left (falls back to ``old`` when not set)."""
        return self.old_category or self.old

    @property
    def category_to(self) -> str:
        """Category entered (falls back to ``new`` when not set)."""
        return self.new_category or self.new


@dataclass(frozen=True)
class HealStarted(ObsEvent):
    """A batch heal began executing."""

    malicious: Tuple[str, ...]


@dataclass(frozen=True)
class HealFinished(ObsEvent):
    """A batch heal committed.

    The undo/redo set sizes are the per-heal work the CTMC abstracts
    into the ``ξ_k`` service rate.
    """

    undone: int
    redone: int
    kept: int
    abandoned: int
    new_executions: int
    duration: float


@dataclass(frozen=True)
class TaskUndone(ObsEvent):
    """The healer removed one task instance's effects.

    ``reason`` distinguishes why: ``"closure"`` (Theorem 1 conditions
    1/3, undone in Phase A), ``"stale-read"`` (condition 4 resolved at
    settle time), or ``"abandoned"`` (the healed path no longer reaches
    the record — Theorem 2's negative case).  ``disposition`` marks a
    *final-disposition note* rather than an undo operation: the record
    was already rolled back earlier in the heal (Phase A closure) and
    this event only announces its fate, so counters must not treat it
    as a second undo.  The LTLf ``redo-follow-through`` monitor
    discharges a definite-redo obligation on an ``"abandoned"`` note
    regardless of the flag.
    """

    uid: str
    reason: str = ""
    disposition: bool = False


@dataclass(frozen=True)
class TaskRedone(ObsEvent):
    """The healer re-executed one task instance (redo or new path).

    ``mode`` is ``"redo"`` for a re-execution at the original log
    position and ``"new"`` for a first-time alternative-path execution
    (Theorem 1 condition 4's ``t_k``).
    """

    uid: str
    mode: str = "redo"


@dataclass(frozen=True)
class NormalTaskRefused(ObsEvent):
    """Strict correctness refused a normal task (Theorem 4's gate)."""

    state: str


@dataclass(frozen=True)
class UndoDecision(ObsEvent):
    """Theorem 1 marked one instance for undo, in the batch heal that
    runs it.

    ``condition`` names the clause that fired (``"T1.1"`` directly
    malicious, ``"T1.2"`` control candidate, ``"T1.3"`` infected via
    data flow, ``"T1.4"`` stale-read candidate); ``via`` is the
    dependency path from the triggering bad instance to ``uid`` (empty
    for T1.1); ``objects`` the data objects realizing the dependence.
    """

    uid: str
    condition: str
    via: Tuple[str, ...] = ()
    objects: Tuple[str, ...] = ()


@dataclass(frozen=True)
class RedoDecision(ObsEvent):
    """Theorem 2 marked one undone instance for redo, in the batch heal
    that runs it.

    ``condition`` is ``"T2.1"`` (not control dependent on another bad
    instance — definitely redone) or ``"T2.2"`` (candidate, resolved by
    re-execution); ``via`` holds the controlling bad instance(s) for
    T2.2.
    """

    uid: str
    condition: str
    via: Tuple[str, ...] = ()


@dataclass(frozen=True)
class OrderConstraint(ObsEvent):
    """One Theorem 3 edge of the order a heal builds for its batch.

    ``rule`` is the clause tag (``"T3.1"``–``"T3.5"``);
    ``before``/``after`` are the action strings (``"undo(wf1/t2#1)"``)
    the edge orders.  The healer's own undo and redo events are the
    realized order checked against it (:func:`realized_action`).
    """

    rule: str
    before: str
    after: str


def realized_action(event: ObsEvent) -> Optional[str]:
    """The recovery action a healer event realizes, as an action string.

    ``undo(uid)`` for a :class:`TaskUndone` undo operation and
    ``redo(uid)`` for a :class:`TaskRedone` re-execution at the
    record's log position; ``None`` for disposition-only notes,
    new-path executions (they have no planned action) and every other
    event.  In log order these strings are the realized schedule.
    """
    if isinstance(event, TaskUndone):
        return None if event.disposition else f"undo({event.uid})"
    if isinstance(event, TaskRedone) and event.mode == "redo":
        return f"redo({event.uid})"
    return None


_E = TypeVar("_E", bound=ObsEvent)


class EventTrace(List[_E]):
    """A provenance sink whose events are built at their publish time.

    An observed heal's decisions pass one as the ``trace=`` of
    :func:`~repro.core.undo_redo.find_undo_tasks` and
    :func:`~repro.core.undo_redo.find_redo_tasks`
    (:func:`~repro.core.analyzer.decide_batch`), and the healer as
    that of :func:`~repro.core.partial_orders.recovery_partial_order`:
    each decision and edge is built once, stamped :attr:`time`, and
    published as it is.  A plain list collects the same events stamped
    ``0.0``.
    """

    def __init__(self, time: float) -> None:
        super().__init__()
        self.time = time


def trace_time(trace: Optional[List[Any]]) -> float:
    """The stamp of the events collected in ``trace``:
    :attr:`EventTrace.time`, or ``0.0`` for a plain list."""
    return getattr(trace, "time", 0.0)


@dataclass(frozen=True)
class QueueItemDropped(ObsEvent):
    """An instrumented bounded queue rejected (or evicted) an item.

    The queue itself publishes it (:meth:`~repro.ids.alerts.BoundedQueue.
    instrument`), stamped with the queue's clock.  Only the fleet's
    central scheduling queue is instrumented, so each event is one
    deferral there (``queue`` ``"central"``); a
    :class:`~repro.system.SelfHealingSystem` publishes one
    :class:`AlertLost` per lost alert and nothing from its queues.
    ``depth`` is the queue's occupancy at rejection time, ``lost_total``
    its lifetime loss counter after this drop, ``priority`` the
    rejected item's class when the queue is a
    :class:`~repro.ids.alerts.PriorityBoundedQueue` (0 for the plain
    FIFO queue) — old flight logs without the field replay with the
    default.
    """

    queue: str
    depth: int
    lost_total: int
    priority: int = 0


@dataclass(frozen=True)
class SloTransition(ObsEvent):
    """A service-level objective changed state (OK / WARN / BREACH).

    Published by :class:`repro.obs.health.HealthMonitor` whenever one
    of its SLOs moves between states; ``value`` is the windowed
    measurement that drove the transition and ``objective`` the SLO's
    target.  The sequence of these events *is* the run's verdict
    history — replaying a flight log reproduces it bit for bit.
    """

    slo: str
    old: str
    new: str
    value: float
    objective: float


@dataclass(frozen=True)
class DriftDetected(ObsEvent):
    """A drift detector flagged model non-conformance.

    ``detector`` names the test (``"cusum-arrival"``, ``"page-hinkley"``,
    ``"gtest-occupancy"``); ``statistic`` the test statistic at alarm
    time and ``threshold`` the alarm level it crossed; ``signal``
    qualifies the direction (``"rate-increase"``, ``"rate-decrease"``,
    ``"occupancy-shift"``).
    """

    detector: str
    statistic: float
    threshold: float
    signal: str = ""


@dataclass(frozen=True)
class ConformanceViolation(ObsEvent):
    """An LTLf conformance property failed over the event stream.

    Published by :class:`repro.obs.monitor.ConformanceMonitor` the
    moment a Definition 2 property reaches an irrevocably-violated
    state.  ``property`` names the failed property
    (``"heal-alternation"``, ``"undo-completeness"``, ...); ``verdict``
    is ``"violated"`` for a hard mid-run violation or
    ``"finally-violated"`` for a liveness obligation left unresolved at
    end of trace; ``instance`` identifies the slice (a task uid, an
    order edge) for parametric properties; ``detail`` is a human
    explanation naming the triggering event.  Like
    :class:`SloTransition`, this is *derived* telemetry: replay
    re-derives it rather than feeding it back through the monitor.
    """

    property: str
    verdict: str
    instance: str = ""
    detail: str = ""


#: Registry of every concrete event type by its ``kind`` name, used by
#: the flight-recorder loader to rebuild typed events from JSONL.
EVENT_TYPES: Dict[str, Type[ObsEvent]] = {
    cls.__name__: cls
    for cls in (
        AlertEnqueued, AlertLost, UnitEmitted, StateTransition,
        HealStarted, HealFinished, TaskUndone, TaskRedone,
        NormalTaskRefused, UndoDecision, RedoDecision, OrderConstraint,
        QueueItemDropped, SloTransition, DriftDetected,
        ConformanceViolation,
    )
}


def event_from_dict(data: Dict[str, Any]) -> ObsEvent:
    """Rebuild a typed event from its :meth:`ObsEvent.to_dict` form.

    The inverse of the JSONL export: ``event_from_dict(e.to_dict())``
    equals ``e`` for every registered event type.  Raises ``KeyError``
    for unknown event kinds and ``TypeError`` for malformed fields, so
    corrupt flight logs fail loudly instead of replaying wrong.
    """
    kind = data.get("event")
    if kind not in EVENT_TYPES:
        raise KeyError(f"unknown event kind {kind!r}")
    cls = EVENT_TYPES[kind]
    kwargs: Dict[str, Any] = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        if isinstance(value, list):
            value = tuple(value)
        kwargs[f.name] = value
    return cls(**kwargs)


Handler = Callable[[ObsEvent], None]


class EventBus:
    """Synchronous in-process pub/sub for :class:`ObsEvent`.

    Handlers subscribe either to everything or to a set of event types;
    :meth:`publish` dispatches in subscription order.  With no
    subscribers the bus is inert and :attr:`active` is ``False`` —
    instrumented code uses that to skip building expensive events.

    The handler lists are copy-on-write: subscribing replaces a list
    instead of mutating it, and ``publish`` reads both lists before it
    dispatches.  Handlers may therefore publish re-entrantly (the
    health monitor republishes SLO verdicts onto the same bus
    mid-dispatch) and subscribe; a new handler takes effect from the
    next ``publish``, and dispatch order within one call stays
    subscription order.  The bus belongs to the run loop's thread (see
    :mod:`repro.obs.server`).
    """

    def __init__(self) -> None:
        self._all: List[Handler] = []
        self._typed: Dict[Type[ObsEvent], List[Handler]] = {}
        self._count = 0

    @property
    def active(self) -> bool:
        """``True`` when at least one handler is subscribed."""
        return self._count > 0

    def subscribe(
        self,
        handler: Handler,
        types: Optional[Iterable[Type[ObsEvent]]] = None,
    ) -> Handler:
        """Register ``handler`` for all events (or only for ``types``);
        returns the handler."""
        if types is None:
            self._all = self._all + [handler]
        else:
            typed = dict(self._typed)
            for t in types:
                typed[t] = typed.get(t, []) + [handler]
            self._typed = typed
        self._count += 1
        return handler

    def publish(self, event: ObsEvent) -> None:
        """Dispatch ``event`` to every matching handler, in order."""
        if self._count == 0:
            return
        all_handlers = self._all
        typed = self._typed.get(type(event))
        for handler in all_handlers:
            handler(event)
        if typed:
            for handler in typed:
                handler(event)


class EventRecorder:
    """Bus subscriber that keeps every event in arrival order."""

    def __init__(self) -> None:
        self.events: List[ObsEvent] = []

    def __call__(self, event: ObsEvent) -> None:
        self.events.append(event)

    def attach(self, bus: EventBus) -> "EventRecorder":
        """Subscribe to ``bus``; returns self for chaining."""
        bus.subscribe(self)
        return self
