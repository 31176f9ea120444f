"""repro.obs — observability for the detect→analyze→heal pipeline.

The paper's evaluation is quantitative — loss probability, queue
occupancy, state dwell times, recovery latency (Sections IV-C–IV-E,
Definitions 3–4) — so the runtime must be able to *measure* itself.
This package provides the measurement layer:

- :mod:`repro.obs.events` — a process-local event bus with one typed
  event per pipeline happening (alert enqueued/lost, scan step, unit
  emitted, state transition, heal started/finished, task undone/redone,
  normal task refused) plus the provenance events (Theorem 1/2
  undo/redo decisions, Theorem 3 order constraints);
- :mod:`repro.obs.metrics` — counters, gauges (with high-water marks),
  and fixed-bucket histograms, plus :class:`PipelineMetrics`, a bus
  subscriber that derives the paper's quantities from the event stream;
- :mod:`repro.obs.tracing` — timed spans, a manually advanced
  simulated-time clock, and the ASCII renderer of a span tree;
- :mod:`repro.obs.recorder` — the flight recorder: versioned,
  append-only JSONL capture of a full run, loadable back into typed
  events — the one record every ``obs`` view renders from;
- :mod:`repro.obs.provenance` — deterministic replay of a flight log
  (decided sets, partial order, schedule, metrics snapshot, span tree)
  and per-task causal explanation;
- :mod:`repro.obs.export` — Prometheus-style text rendering,
  Chrome-trace/Perfetto JSON, and summary tables via
  :mod:`repro.report.tables`;
- :mod:`repro.obs.windows` — sim-time sliding-window estimators (rate
  windows, occupancy dwell windows) and sequential
  drift detectors (two-sided CUSUM, Page–Hinkley, G-test);
- :mod:`repro.obs.health` — the live SLO health monitor: compares
  windowed estimates against the calibrated CTMC's steady-state
  predictions, drives OK/WARN/BREACH SLOs, emits typed
  drift/SLO-transition events, and merges per-replication
  conformance reports deterministically;
- :mod:`repro.obs.perf` — wall-clock profiling and end-to-end latency
  attribution: :class:`PhaseProfiler` decomposes a run into attributed
  phases (dual sim/wall clocks, deterministic breakdown structure) and
  global cost-driver counters count CTMC solves, closure
  recomputations, pickle bytes, and queue evictions;
- :mod:`repro.obs.server` — a stdlib-only HTTP telemetry endpoint
  (``/metrics`` Prometheus text, ``/healthz``, ``/slo`` JSON);
- :mod:`repro.obs.runner` — the Figure 1 incident driver behind the
  ``repro-workflow obs`` CLI subcommand, recording into a flight
  recorder (the simulators are recorded through their own
  ``run_replication`` with a bus attached).

Instrumentation is strictly opt-in: every instrumented component takes
an optional bus and publishes nothing (and allocates nothing) when none
is attached.
"""

from repro.obs.events import (
    AlertEnqueued,
    AlertLost,
    DriftDetected,
    EventBus,
    EventRecorder,
    HealFinished,
    HealStarted,
    NormalTaskRefused,
    ObsEvent,
    OrderConstraint,
    QueueItemDropped,
    RedoDecision,
    ScanStep,
    SloTransition,
    StateTransition,
    TaskRedone,
    TaskUndone,
    UndoDecision,
    UnitEmitted,
    event_from_dict,
)
from repro.obs.health import (
    ConformanceReport,
    HealthMonitor,
    ModelPrediction,
    Slo,
    SloSpec,
    SloState,
    merge_conformance,
    replay_verdicts,
    wilson_interval,
)
from repro.obs.export import (
    metrics_table,
    render_prometheus,
    spans_to_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PipelineMetrics,
)
from repro.obs.perf import (
    PHASES,
    PhaseProfiler,
    ProfileReport,
    bump,
    counter_snapshot,
)
from repro.obs.provenance import ReplayedRun, build_span_tree, explain, replay
from repro.obs.recorder import (
    SCHEMA_VERSION,
    FlightLog,
    FlightRecorder,
    load_flight_log,
    read_flight_log,
)
from repro.obs.server import TelemetryServer
from repro.obs.tracing import ManualClock, Span, render_span_tree
from repro.obs.windows import (
    Cusum,
    OccupancyWindow,
    PageHinkley,
    RateWindow,
    SlidingWindow,
    g_test,
)

__all__ = [
    # events
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
    "QueueItemDropped",
    "SloTransition",
    "DriftDetected",
    "EventBus",
    "EventRecorder",
    "event_from_dict",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PipelineMetrics",
    # tracing
    "ManualClock",
    "Span",
    "render_span_tree",
    # recorder
    "SCHEMA_VERSION",
    "FlightRecorder",
    "FlightLog",
    "read_flight_log",
    "load_flight_log",
    # perf
    "PHASES",
    "PhaseProfiler",
    "ProfileReport",
    "bump",
    "counter_snapshot",
    # provenance
    "ReplayedRun",
    "replay",
    "explain",
    "build_span_tree",
    # export
    "render_prometheus",
    "metrics_table",
    "spans_to_chrome_trace",
    # windows
    "SlidingWindow",
    "RateWindow",
    "OccupancyWindow",
    "Cusum",
    "PageHinkley",
    "g_test",
    # health
    "SloState",
    "SloSpec",
    "Slo",
    "ModelPrediction",
    "HealthMonitor",
    "ConformanceReport",
    "merge_conformance",
    "replay_verdicts",
    "wilson_interval",
    # server
    "TelemetryServer",
]
