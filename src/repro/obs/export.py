"""Exporters: Prometheus text, Chrome traces, summary tables.

The one JSON-lines event format is the flight log
(:mod:`repro.obs.recorder`).

Everything renders to plain strings so callers decide where the bytes
go (stdout, a file, a test assertion).
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.obs.events import ObsEvent
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PipelineMetrics,
)
from repro.obs.tracing import Span
from repro.report.tables import Table

__all__ = [
    "render_prometheus",
    "metrics_table",
    "spans_to_chrome_trace",
]


def _format_value(value: float) -> str:
    """A sample value in Prometheus text exposition form.

    Non-finite values have dedicated spellings (``+Inf``, ``-Inf``,
    ``NaN``); integral floats drop the decimal point.  Note
    ``int(inf)`` raises, so the non-finite cases must come first.
    """
    if math.isnan(value):
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value == int(value):
        return str(int(value))
    return repr(value)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash,
    double quote, and line feed."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """Escape ``# HELP`` text: backslash and line feed."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(
    labels: Sequence[Tuple[str, str]],
    extra: str = "",
) -> str:
    """``{k="v",...}`` with escaped values; empty string for no labels."""
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition of every instrument in ``registry``.

    Families (same name, different labels) share one ``# HELP`` /
    ``# TYPE`` header; histogram buckets are rendered cumulatively with
    the conventional ``_bucket{le=...}`` / ``_sum`` / ``_count`` series.
    Label values are escaped and non-finite samples rendered per the
    text exposition format.
    """
    lines: List[str] = []
    seen_headers = set()

    for metric in registry.metrics():
        if metric.name not in seen_headers:
            seen_headers.add(metric.name)
            if metric.help:
                lines.append(
                    f"# HELP {metric.name} {_escape_help(metric.help)}"
                )
            lines.append(f"# TYPE {metric.name} {metric.kind}")
        labels = _render_labels(metric.labels)
        if isinstance(metric, Counter):
            lines.append(
                f"{metric.name}{labels} {_format_value(metric.value)}"
            )
        elif isinstance(metric, Gauge):
            lines.append(
                f"{metric.name}{labels} {_format_value(metric.value)}"
            )
            lines.append(
                f"{metric.name}_high_water{labels} "
                f"{_format_value(metric.high_water)}"
            )
        elif isinstance(metric, Histogram):
            acc = 0
            for bound, count in zip(metric.bounds, metric.bucket_counts):
                acc += count
                le = 'le="%s"' % _format_value(bound)
                lines.append(
                    f"{metric.name}_bucket"
                    f"{_render_labels(metric.labels, le)} {acc}"
                )
            inf = 'le="+Inf"'
            lines.append(
                f"{metric.name}_bucket"
                f"{_render_labels(metric.labels, inf)} {metric.count}"
            )
            lines.append(
                f"{metric.name}_sum{labels} {_format_value(metric.sum)}"
            )
            lines.append(
                f"{metric.name}_count{labels} {metric.count}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def metrics_table(pipeline: PipelineMetrics,
                  title: str = "Pipeline metrics") -> Table:
    """The collector's summary as a :class:`~repro.report.tables.Table`."""
    table = Table(title, ["metric", "value"])
    for name, value in pipeline.summary_rows():
        table.add_row(name, value)
    return table


def _micros(seconds: float) -> float:
    """Trace timestamps are microseconds."""
    return round(seconds * 1e6, 3)


def spans_to_chrome_trace(
    roots: Sequence[Span],
    events: Iterable[ObsEvent] = (),
) -> str:
    """Render spans (and optional events) as Chrome-trace JSON.

    The output is the trace-event format that ``chrome://tracing`` and
    Perfetto load: ``{"traceEvents": [...]}`` with one ``ph: "X"``
    (complete) event per finished span — ``ts``/``dur`` in
    microseconds — one ``ph: "B"`` (begin, never ended) per unfinished
    span, and one ``ph: "i"`` (instant) per pipeline event.  Each root
    span gets its own ``tid`` track; instants land on track 0.
    """
    trace_events: List[Dict[str, Any]] = []

    def walk(span: Span, tid: int) -> None:
        entry: Dict[str, Any] = {
            "name": span.name,
            "ph": "X" if span.finished else "B",
            "ts": _micros(span.start),
            "pid": 1,
            "tid": tid,
            "args": {k: str(v) for k, v in sorted(span.attributes.items())},
        }
        if span.finished:
            entry["dur"] = _micros(span.duration)
        trace_events.append(entry)
        for child in span.children:
            walk(child, tid)

    for tid, root in enumerate(roots, start=1):
        walk(root, tid)

    for event in events:
        payload = event.to_dict()
        payload.pop("event", None)
        payload.pop("time", None)
        trace_events.append({
            "name": event.kind,
            "ph": "i",
            "ts": _micros(event.time),
            "pid": 1,
            "tid": 0,
            "s": "t",  # thread-scoped instant
            "args": {k: str(v) for k, v in sorted(payload.items())},
        })

    return json.dumps(
        {"traceEvents": trace_events, "displayTimeUnit": "ms"},
        sort_keys=True,
    )
