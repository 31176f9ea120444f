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
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Type

from repro.obs.locks import make_lock

__all__ = [
    "ObsEvent",
    "AlertEnqueued",
    "AlertLost",
    "ScanStep",
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
    "ActionDispatched",
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
        """The event's type name (``AlertLost``, ``ScanStep``, ...)."""
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
class ScanStep(ObsEvent):
    """The analyzer processed one alert into a recovery plan.

    ``cost`` is the analyzer's dependence-check count (the linear
    ``μ_k`` work of Section V-A); ``outstanding_units`` the recovery
    units already queued when the scan ran.
    """

    uid: str
    outstanding_units: int
    cost: int


@dataclass(frozen=True)
class UnitEmitted(ObsEvent):
    """A recovery plan entered the recovery-task queue.

    When the publisher is the real analyzer pipeline it also stamps the
    plan's **claimed** blast radius: ``claimed_undo``/``claimed_redo``
    are the sorted definite undo/redo sets of the queued plan and
    ``claimed`` is ``True``.  The conformance monitor compares the claim
    against the Theorem 1/2 decision events of the same scan window —
    a mismatch means the plan was altered between analysis and queuing.
    Abstract simulators that only track unit *counts* leave the default
    ``claimed=False``, which the monitor treats as "no claim made".
    """

    units: int
    queue_depth: int
    claimed: bool = False
    claimed_undo: Tuple[str, ...] = ()
    claimed_redo: Tuple[str, ...] = ()


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
    """Theorem 1 marked one instance for undo.

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
    """Theorem 2 marked one undone instance for redo.

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
    """One Theorem 3/4 edge materialized into a recovery partial order.

    ``rule`` is the clause tag (``"T3.1"``–``"T3.5"``, ``"T4.1"``,
    ``"T4.2"``, or ``"XU"`` for a cross-unit FIFO constraint against an
    already-queued recovery unit); ``before``/``after`` are the action
    strings (``"undo(wf1/t2#1)"``) the edge orders.
    """

    rule: str
    before: str
    after: str


@dataclass(frozen=True)
class ActionDispatched(ObsEvent):
    """The partial-order scheduler dispatched one recovery action.

    ``position`` is the 0-based slot in the realized linear extension;
    ``satisfied`` lists the direct-predecessor actions whose completion
    made this dispatch legal (the constraints actually applied).
    """

    action: str
    position: int
    satisfied: Tuple[str, ...] = ()


@dataclass(frozen=True)
class QueueItemDropped(ObsEvent):
    """A bounded queue rejected an item because it was full.

    Unlike :class:`AlertLost` (which the *system* publishes with alert
    identity), this event is emitted by the queue itself on every
    rejection, stamped with the queue's clock, so windowed loss
    estimators and the flight recorder see each drop even on paths
    that bypass the system-level instrumentation.  ``queue`` names
    which queue dropped (``"alert"`` / ``"recovery"``), ``depth`` its
    occupancy at rejection time, ``lost_total`` the queue's lifetime
    loss counter after this drop.  ``priority`` is the rejected item's
    priority class when the queue is a
    :class:`~repro.ids.alerts.PriorityBoundedQueue` (0 for the plain
    FIFO queue, whose only class is 0) — old flight logs without the
    field replay with the default.
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
        AlertEnqueued, AlertLost, ScanStep, UnitEmitted, StateTransition,
        HealStarted, HealFinished, TaskUndone, TaskRedone,
        NormalTaskRefused, UndoDecision, RedoDecision, OrderConstraint,
        ActionDispatched, QueueItemDropped, SloTransition, DriftDetected,
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

    Subscription bookkeeping is lock-protected so a bus can be shared
    across threads.  ``publish`` snapshots the handler lists
    under the lock but dispatches *outside* it: handlers are allowed to
    publish re-entrantly (the health monitor republishes SLO verdicts
    onto the same bus mid-dispatch) and to (un)subscribe, neither of
    which may deadlock.  Handlers themselves must be thread-safe when
    the bus is shared; dispatch order within one ``publish`` call stays
    subscription order.
    """

    def __init__(self) -> None:
        self._all: List[Handler] = []
        self._typed: Dict[Type[ObsEvent], List[Handler]] = {}
        self._count = 0
        self._lock = make_lock("bus")

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
        returns the handler for symmetry with :meth:`unsubscribe`."""
        with self._lock:
            if types is None:
                self._all = self._all + [handler]
            else:
                typed = dict(self._typed)
                for t in types:
                    typed[t] = typed.get(t, []) + [handler]
                self._typed = typed
            self._count += 1
        return handler

    def unsubscribe(self, handler: Handler) -> None:
        """Remove every registration of ``handler`` (no-op if absent)."""
        with self._lock:
            removed = 0
            if handler in self._all:
                self._all = [h for h in self._all if h is not handler]
                removed += 1
            typed = dict(self._typed)
            for t, handlers in list(typed.items()):
                if handler in handlers:
                    typed[t] = [h for h in handlers if h is not handler]
                    removed += 1
                    if not typed[t]:
                        del typed[t]
            self._typed = typed
            self._count = max(0, self._count - removed)

    def publish(self, event: ObsEvent) -> None:
        """Dispatch ``event`` to every matching handler, in order."""
        if self._count == 0:
            return
        with self._lock:
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

    def of_type(self, event_type: Type[ObsEvent]) -> List[ObsEvent]:
        """Recorded events of one type, in order."""
        return [e for e in self.events if isinstance(e, event_type)]

    def clear(self) -> None:
        """Forget everything recorded so far."""
        self.events.clear()
