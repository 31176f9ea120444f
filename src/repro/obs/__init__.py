"""repro.obs — observability for the detect→analyze→heal pipeline.

The paper's evaluation is quantitative — loss probability, queue
occupancy, state dwell times, recovery latency (Sections IV-C–IV-E,
Definitions 3–4) — so the runtime must be able to *measure* itself.
This package provides the measurement layer:

- :mod:`repro.obs.events` — a process-local event bus with one typed
  event per pipeline happening (alert enqueued or lost, a scan's unit
  emitted, state transition, heal started/finished, task
  undone/redone, normal task refused, a fleet central-queue deferral)
  plus the provenance events (Theorem 1/2 undo/redo decisions,
  Theorem 3 order constraints);
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
- :mod:`repro.obs.runner` — the recorded-incident driver behind
  ``repro-workflow obs --scenario figure1`` and ``demo --flight-log``,
  recording into a flight recorder (the simulators are recorded through their own
  ``run_replication`` with a bus attached).

Instrumentation is strictly opt-in: every instrumented component takes
an optional bus and publishes nothing (and allocates nothing) when none
is attached.

The package's exports resolve on first use (:mod:`repro._exports`):
importing :mod:`repro.obs.events` loads no HTTP server, replay or
recorded-incident driver.
"""

from repro._exports import lazy_exports

#: Each package export and the submodule that defines it.
_HOMES = {
    # events
    "ObsEvent": "events",
    "AlertEnqueued": "events",
    "AlertLost": "events",
    "UnitEmitted": "events",
    "StateTransition": "events",
    "HealStarted": "events",
    "HealFinished": "events",
    "TaskUndone": "events",
    "TaskRedone": "events",
    "NormalTaskRefused": "events",
    "UndoDecision": "events",
    "RedoDecision": "events",
    "OrderConstraint": "events",
    "QueueItemDropped": "events",
    "SloTransition": "events",
    "DriftDetected": "events",
    "EventBus": "events",
    "EventRecorder": "events",
    "event_from_dict": "events",
    # metrics
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "PipelineMetrics": "metrics",
    # tracing
    "ManualClock": "tracing",
    "Span": "tracing",
    "render_span_tree": "tracing",
    # recorder
    "SCHEMA_VERSION": "recorder",
    "FlightRecorder": "recorder",
    "FlightLog": "recorder",
    "read_flight_log": "recorder",
    "load_flight_log": "recorder",
    # perf
    "PHASES": "perf",
    "PhaseProfiler": "perf",
    "ProfileReport": "perf",
    "bump": "perf",
    "counter_snapshot": "perf",
    # provenance
    "ReplayedRun": "provenance",
    "replay": "provenance",
    "explain": "provenance",
    "build_span_tree": "provenance",
    # export
    "render_prometheus": "export",
    "metrics_table": "export",
    "spans_to_chrome_trace": "export",
    # windows
    "SlidingWindow": "windows",
    "RateWindow": "windows",
    "OccupancyWindow": "windows",
    "Cusum": "windows",
    "PageHinkley": "windows",
    "g_test": "windows",
    # health
    "SloState": "health",
    "SloSpec": "health",
    "Slo": "health",
    "ModelPrediction": "health",
    "HealthMonitor": "health",
    "ConformanceReport": "health",
    "merge_conformance": "health",
    "replay_verdicts": "health",
    "wilson_interval": "health",
    # server
    "TelemetryServer": "server",
}

__all__ = list(_HOMES)

__getattr__, __dir__ = lazy_exports(__name__, _HOMES)
