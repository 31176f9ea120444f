"""Metrics primitives and the pipeline-metrics collector.

Three instrument kinds, deliberately minimal and dependency-free:

- :class:`Counter` — monotonically increasing count;
- :class:`Gauge` — settable level with a high-water mark (queue depths);
- :class:`Histogram` — fixed-bucket distribution (dwell times, service
  times, undo/redo set sizes).

A :class:`MetricsRegistry` names and owns instruments (optionally with
labels, Prometheus-style), and :class:`PipelineMetrics` subscribes a
registry to an event bus, deriving the paper's quantities — state dwell
times, queue high-water marks, loss counts, per-heal work — from the
typed event stream of :mod:`repro.obs.events`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.events import (
    AlertEnqueued,
    AlertLost,
    EventBus,
    HealFinished,
    NormalTaskRefused,
    ObsEvent,
    QueueItemDropped,
    StateTransition,
    TaskRedone,
    TaskUndone,
    UnitEmitted,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PipelineMetrics",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]

#: Default histogram buckets for durations (seconds / sim-time units).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0,
)

#: Default histogram buckets for set sizes / queue lengths.
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    0, 1, 2, 3, 5, 8, 13, 21, 34, 55,
)

LabelsArg = Optional[Mapping[str, str]]
LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: LabelsArg) -> LabelsKey:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class _Metric:
    """Common identity of every instrument.

    Instruments are updated from the run loop's one thread; the
    telemetry server reads them under its own lock (see
    :mod:`repro.obs.server`).
    """

    kind = "untyped"

    def __init__(self, name: str, labels: LabelsKey, help: str) -> None:
        self.name = name
        self.labels = labels
        self.help = help

    @property
    def label_str(self) -> str:
        """Prometheus-style label suffix (`{state="SCAN"}` or empty)."""
        if not self.labels:
            return ""
        inner = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return "{" + inner + "}"


class Counter(_Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelsKey = (),
                 help: str = "") -> None:
        super().__init__(name, labels, help)
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current count."""
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self._value += amount

class Gauge(_Metric):
    """Settable level that remembers its high-water mark."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelsKey = (),
                 help: str = "") -> None:
        super().__init__(name, labels, help)
        self._value = 0.0
        self._high_water = 0.0

    @property
    def value(self) -> float:
        """Current level."""
        return self._value

    @property
    def high_water(self) -> float:
        """Maximum level seen since creation."""
        return self._high_water

    def set(self, value: float) -> None:
        """Set the level (updates the high-water mark)."""
        self._value = float(value)
        if self._value > self._high_water:
            self._high_water = self._value

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the level by ``amount``."""
        self.set(self._value + amount)

class Histogram(_Metric):
    """Fixed-bucket histogram with sum and count.

    ``buckets`` are upper bounds, strictly increasing; an implicit
    ``+inf`` bucket catches the tail.  Bucket counts are per-bucket
    (not cumulative); the Prometheus renderer accumulates them.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        labels: LabelsKey = (),
        help: str = "",
    ) -> None:
        super().__init__(name, labels, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must increase: {bounds}")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +inf bucket
        self._sum = 0.0
        self._count = 0

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    @property
    def mean(self) -> float:
        """Mean observation (0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    @property
    def bucket_counts(self) -> Tuple[int, ...]:
        """Per-bucket counts; the last entry is the ``+inf`` bucket."""
        return tuple(self._counts)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._counts[bisect_left(self.bounds, value)] += 1
        self._sum += value
        self._count += 1

class MetricsRegistry:
    """Named, get-or-create home for instruments.

    Instruments are identified by ``(name, labels)``; requesting an
    existing pair returns the same object (so instrumentation sites can
    be stateless).  Re-requesting a name with a different instrument
    kind is an error.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelsKey], _Metric] = {}

    def _get_or_create(self, cls, name: str, labels: LabelsArg,
                       help: str, **kwargs) -> _Metric:
        key = (name, _labels_key(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        metric = cls(name, labels=key[1], help=help, **kwargs)
        self._metrics[key] = metric
        return metric

    def counter(self, name: str, labels: LabelsArg = None,
                help: str = "") -> Counter:
        """Get or create a counter."""
        return self._get_or_create(Counter, name, labels, help)

    def gauge(self, name: str, labels: LabelsArg = None,
              help: str = "") -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        labels: LabelsArg = None,
        help: str = "",
    ) -> Histogram:
        """Get or create a histogram."""
        return self._get_or_create(Histogram, name, labels, help,
                                   buckets=buckets)

    def metrics(self) -> List[_Metric]:
        """Every instrument, sorted by ``(name, labels)``."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    def get(self, name: str, labels: LabelsArg = None) -> Optional[_Metric]:
        """Look up an instrument; ``None`` when absent."""
        return self._metrics.get((name, _labels_key(labels)))

    def __len__(self) -> int:
        return len(self._metrics)


class PipelineMetrics:
    """Event-bus subscriber deriving the paper's runtime quantities.

    Maintains, in a :class:`MetricsRegistry`:

    - counters ``repro_alerts_enqueued_total`` / ``repro_alerts_lost_total``
      (Definition 3's numerator, observed), ``repro_scan_steps_total``
      (one per ``UnitEmitted``), ``repro_heals_total``,
      ``repro_tasks_undone_total`` / ``repro_tasks_redone_total``,
      ``repro_normal_tasks_refused_total`` (Theorem 4's cost);
    - gauges ``repro_alert_queue_depth`` / ``repro_recovery_queue_depth``
      with high-water marks (Section IV-E's buffer pressure);
    - histograms ``repro_state_dwell_time{state=...}`` (Section IV-C
      occupancy), ``repro_heal_duration``, ``repro_heal_undo_size`` /
      ``repro_heal_redo_size``.

    Time accounting starts at the first event (or an explicit
    :meth:`start`) and must be closed with :meth:`finalize` so the last
    state's dwell interval is counted.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self.alerts_enqueued = r.counter(
            "repro_alerts_enqueued_total",
            help="IDS alerts accepted into the alert queue")
        self.alerts_lost = r.counter(
            "repro_alerts_lost_total",
            help="IDS alerts rejected by a full alert queue")
        self.scan_steps = r.counter(
            "repro_scan_steps_total",
            help="alerts scanned into units of the recovery-task queue")
        self.heals = r.counter(
            "repro_heals_total", help="batch heals committed")
        self.tasks_undone = r.counter(
            "repro_tasks_undone_total", help="task instances undone")
        self.tasks_redone = r.counter(
            "repro_tasks_redone_total",
            help="task instances redone or newly executed")
        self.normal_refused = r.counter(
            "repro_normal_tasks_refused_total",
            help="normal tasks refused by strict correctness")
        self.alert_depth = r.gauge(
            "repro_alert_queue_depth", help="alerts currently queued")
        self.recovery_depth = r.gauge(
            "repro_recovery_queue_depth",
            help="recovery units currently queued")
        self.heal_duration = r.histogram(
            "repro_heal_duration", help="duration of each batch heal")
        self.undo_size = r.histogram(
            "repro_heal_undo_size", buckets=DEFAULT_SIZE_BUCKETS,
            help="instances undone per heal")
        self.redo_size = r.histogram(
            "repro_heal_redo_size", buckets=DEFAULT_SIZE_BUCKETS,
            help="instances redone (or newly executed) per heal")

        self._dwell: Dict[str, Histogram] = {}
        self._time_in_state: Dict[str, float] = {}
        self._state: Optional[str] = None
        self._state_since = 0.0
        self._started = False
        self._finalized_at: Optional[float] = None

    # -- wiring ------------------------------------------------------------

    def attach(self, bus: EventBus) -> "PipelineMetrics":
        """Subscribe to ``bus``; returns self for chaining."""
        bus.subscribe(self)
        return self

    # -- event handling ----------------------------------------------------

    def start(self, now: float, state: str = "NORMAL") -> None:
        """Open time accounting at ``now`` in ``state``."""
        self._state = state
        self._state_since = now
        self._started = True

    def __call__(self, event: ObsEvent) -> None:
        if isinstance(event, StateTransition):
            self._on_transition(event)
            return
        if isinstance(event, AlertEnqueued):
            self.alerts_enqueued.inc()
            self.alert_depth.set(event.queue_depth)
        elif isinstance(event, AlertLost):
            self.alerts_lost.inc()
            self.alert_depth.set(event.queue_depth)
        elif isinstance(event, UnitEmitted):
            self.scan_steps.inc()
            self.recovery_depth.set(event.queue_depth)
        elif isinstance(event, HealFinished):
            self.heals.inc()
            self.heal_duration.observe(event.duration)
            self.undo_size.observe(event.undone)
            self.redo_size.observe(event.redone + event.new_executions)
        elif isinstance(event, TaskUndone):
            # Disposition-only notes (an abandoned record the closure
            # already rolled back) are not a second undo operation.
            if not event.disposition:
                self.tasks_undone.inc()
        elif isinstance(event, TaskRedone):
            self.tasks_redone.inc()
        elif isinstance(event, NormalTaskRefused):
            self.normal_refused.inc()
        elif isinstance(event, QueueItemDropped):
            self.registry.counter(
                "repro_queue_dropped_total",
                labels={"queue": event.queue},
                help="items rejected by a full bounded queue",
            ).inc()
        if not self._started:
            # First event anchors the clock for dwell accounting.
            self.start(event.time)

    def _dwell_histogram(self, state: str) -> Histogram:
        hist = self._dwell.get(state)
        if hist is None:
            hist = self.registry.histogram(
                "repro_state_dwell_time", labels={"state": state},
                help="time per contiguous stay in each system state")
            self._dwell[state] = hist
        return hist

    def _close_interval(self, now: float) -> None:
        if self._state is None:
            return
        dwell = now - self._state_since
        if dwell < 0:
            dwell = 0.0
        self._dwell_histogram(self._state).observe(dwell)
        self._time_in_state[self._state] = (
            self._time_in_state.get(self._state, 0.0) + dwell
        )

    def _on_transition(self, event: StateTransition) -> None:
        if not self._started:
            self.start(event.time, event.category_from)
        self._close_interval(event.time)
        self._state = event.category_to
        self._state_since = event.time

    def finalize(self, now: float) -> None:
        """Close the open dwell interval at ``now`` (idempotent)."""
        if self._finalized_at == now:
            return
        self._close_interval(now)
        self._state_since = now
        self._finalized_at = now

    # -- derived quantities ------------------------------------------------

    @property
    def loss_fraction(self) -> float:
        """Lost alerts / all offered alerts (Definition 3, observed)."""
        offered = self.alerts_enqueued.value + self.alerts_lost.value
        return self.alerts_lost.value / offered if offered else 0.0

    def time_in_state(self, state: str) -> float:
        """Total accumulated time in ``state`` (after finalize)."""
        return self._time_in_state.get(state, 0.0)

    def occupancy(self) -> Dict[str, float]:
        """Fraction of accounted time per state (sums to 1)."""
        total = sum(self._time_in_state.values())
        if total <= 0:
            return {}
        return {s: t / total for s, t in self._time_in_state.items()}

    def dwell_states(self) -> List[str]:
        """States with at least one closed dwell interval, sorted."""
        return sorted(self._time_in_state)

    def summary_rows(self) -> List[Tuple[str, object]]:
        """``(metric, value)`` rows for the human-readable report."""
        rows: List[Tuple[str, object]] = []
        occ = self.occupancy()
        for state in self.dwell_states():
            hist = self._dwell[state]
            rows.append((f"dwell[{state}] total", self.time_in_state(state)))
            rows.append((f"dwell[{state}] mean", hist.mean))
            if occ:
                rows.append((f"occupancy[{state}]", occ[state]))
        rows.extend([
            ("alerts enqueued", int(self.alerts_enqueued.value)),
            ("alerts lost", int(self.alerts_lost.value)),
            ("alert loss fraction", self.loss_fraction),
            ("alert queue high-water", int(self.alert_depth.high_water)),
            ("recovery queue high-water",
             int(self.recovery_depth.high_water)),
            ("scan steps", int(self.scan_steps.value)),
            ("heals", int(self.heals.value)),
            ("tasks undone", int(self.tasks_undone.value)),
            ("tasks redone", int(self.tasks_redone.value)),
            ("mean undo set size", self.undo_size.mean),
            ("mean redo set size", self.redo_size.mean),
            ("normal tasks refused", int(self.normal_refused.value)),
        ])
        return rows
