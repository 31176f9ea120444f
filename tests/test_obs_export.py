"""Unit tests for the observability exporters."""

import json

from repro.obs.events import AlertEnqueued, AlertLost, HealStarted
from repro.obs.export import metrics_table, render_prometheus
from repro.obs.metrics import MetricsRegistry, PipelineMetrics
from repro.obs.recorder import FlightRecorder


def event_lines(events):
    """The event records a flight recorder writes for ``events``, with
    the header line dropped."""
    flight = FlightRecorder()
    for event in events:
        flight(event)
    return flight.text().splitlines()[1:]


class TestEventsToJsonl:
    """The flight log is the one JSON-lines event format."""

    def test_one_compact_object_per_line(self):
        lines = event_lines([
            AlertEnqueued(0.5, uid="w/t1#1", queue_depth=1),
            AlertLost(1.0, uid="w/t2#1", queue_depth=8),
        ])
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {"record": "event", "event": "AlertEnqueued",
                         "time": 0.5, "uid": "w/t1#1", "queue_depth": 1}
        assert " " not in lines[0]  # compact separators

    def test_tuple_fields_serialize_as_lists(self):
        (line,) = event_lines([HealStarted(2.0, malicious=("a", "b"))])
        assert json.loads(line)["malicious"] == ["a", "b"]

    def test_empty_stream(self):
        assert event_lines([]) == []


class TestRenderPrometheus:
    def test_counter_and_gauge_exposition(self):
        r = MetricsRegistry()
        r.counter("repro_demo_total", help="demo counter").inc(3)
        g = r.gauge("repro_depth", help="demo gauge")
        g.set(5)
        g.set(2)
        text = render_prometheus(r)
        assert "# HELP repro_demo_total demo counter" in text
        assert "# TYPE repro_demo_total counter" in text
        assert "repro_demo_total 3" in text
        assert "# TYPE repro_depth gauge" in text
        assert "repro_depth 2" in text
        assert "repro_depth_high_water 5" in text

    def test_histogram_buckets_are_cumulative(self):
        r = MetricsRegistry()
        h = r.histogram("repro_cost", buckets=(1.0, 5.0))
        for v in (0.5, 0.7, 3.0, 99.0):
            h.observe(v)
        text = render_prometheus(r)
        assert 'repro_cost_bucket{le="1"} 2' in text
        assert 'repro_cost_bucket{le="5"} 3' in text
        assert 'repro_cost_bucket{le="+Inf"} 4' in text
        assert "repro_cost_sum 103.2" in text
        assert "repro_cost_count 4" in text

    def test_labeled_family_shares_one_header(self):
        r = MetricsRegistry()
        r.histogram("repro_dwell", buckets=(1.0,),
                    labels={"state": "SCAN"}).observe(0.5)
        r.histogram("repro_dwell", buckets=(1.0,),
                    labels={"state": "NORMAL"}).observe(0.5)
        text = render_prometheus(r)
        assert text.count("# TYPE repro_dwell histogram") == 1
        assert 'repro_dwell_bucket{state="NORMAL",le="1"} 1' in text
        assert 'repro_dwell_bucket{state="SCAN",le="1"} 1' in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestMetricsTable:
    def test_table_has_summary_rows(self):
        m = PipelineMetrics()
        m.start(0.0, state="NORMAL")
        m(AlertLost(0.5, uid="a", queue_depth=1))
        m.finalize(1.0)
        text = metrics_table(m, title="demo metrics").render()
        assert "demo metrics" in text
        assert "alerts lost" in text
        assert "dwell[NORMAL] total" in text


class TestExpositionEdgeCases:
    def test_non_finite_samples_use_exposition_spellings(self):
        r = MetricsRegistry()
        r.gauge("repro_pos").set(float("inf"))
        r.gauge("repro_neg").set(float("-inf"))
        r.gauge("repro_nan").set(float("nan"))
        text = render_prometheus(r)
        assert "repro_pos +Inf" in text
        assert "repro_pos_high_water +Inf" in text
        assert "repro_neg -Inf" in text
        assert "repro_nan NaN" in text
        # int(inf) raises OverflowError; the renderer must not.
        assert "OverflowError" not in text

    def test_label_values_escaped(self):
        r = MetricsRegistry()
        r.counter("repro_weird_total",
                  labels={"path": 'a\\b"c\nd'}).inc()
        text = render_prometheus(r)
        assert 'path="a\\\\b\\"c\\nd"' in text
        assert "\n\n" not in text  # the raw newline never leaks

    def test_help_text_escaped(self):
        r = MetricsRegistry()
        r.counter("repro_h_total", help="line1\nline2 \\ slash").inc()
        text = render_prometheus(r)
        assert "# HELP repro_h_total line1\\nline2 \\\\ slash" in text


class TestChromeTrace:
    def _spans(self):
        from repro.obs.tracing import Span

        root = Span("run", 0.0, {"label": "demo"})
        root.end = 2.0
        child = Span("heal", 0.5)
        child.end = 1.25
        root.children.append(child)
        dangling = Span("crashed", 1.5)  # never finished
        return [root], dangling

    def test_finished_spans_are_complete_events(self):
        from repro.obs.export import spans_to_chrome_trace

        roots, _ = self._spans()
        doc = json.loads(spans_to_chrome_trace(roots))
        assert doc["displayTimeUnit"] == "ms"
        run, heal = doc["traceEvents"]
        assert run == {"name": "run", "ph": "X", "ts": 0.0,
                       "dur": 2000000.0, "pid": 1, "tid": 1,
                       "args": {"label": "demo"}}
        assert heal["ph"] == "X" and heal["ts"] == 500000.0
        assert heal["dur"] == 750000.0

    def test_unfinished_span_is_begin_event(self):
        from repro.obs.export import spans_to_chrome_trace

        roots, dangling = self._spans()
        roots[0].children.append(dangling)
        (entry,) = [e for e in
                    json.loads(spans_to_chrome_trace(roots))["traceEvents"]
                    if e["name"] == "crashed"]
        assert entry["ph"] == "B" and "dur" not in entry

    def test_events_render_as_instants_on_track_zero(self):
        from repro.obs.export import spans_to_chrome_trace

        roots, _ = self._spans()
        doc = json.loads(spans_to_chrome_trace(
            roots, [AlertEnqueued(0.75, uid="w/t1#1", queue_depth=2)]
        ))
        (instant,) = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instant["name"] == "AlertEnqueued"
        assert instant["tid"] == 0 and instant["s"] == "t"
        assert instant["ts"] == 750000.0
        assert instant["args"] == {"uid": "w/t1#1", "queue_depth": "2"}
