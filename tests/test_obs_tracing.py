"""Unit tests for spans, the span-tree renderer and the manual clock."""

import pytest

from repro.obs.tracing import ManualClock, Span, render_span_tree


class TestManualClock:
    def test_starts_and_advances(self):
        clock = ManualClock(10.0)
        assert clock() == 10.0 and clock.now == 10.0
        assert clock.advance(2.5) == 12.5
        assert clock() == 12.5

    def test_set_absolute(self):
        clock = ManualClock()
        clock.set(4.0)
        assert clock.now == 4.0

    def test_rejects_backward_motion(self):
        clock = ManualClock(5.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        with pytest.raises(ValueError):
            clock.set(4.0)


class TestSpan:
    def test_set_attribute(self):
        span = Span("s", 0.0)
        span.set_attribute("tasks", 7)
        assert span.attributes == {"tasks": 7}


class TestRenderSpanTree:
    def test_renders_durations_depth_and_attrs(self):
        root = Span("incident", 0.0, {"scenario": "figure1"})
        scan = Span("scan", 0.0)
        scan.end = root.end = 0.5
        root.children.append(scan)
        lines = render_span_tree([root]).splitlines()
        assert lines[0] == "- incident (0.5)  [scenario=figure1]"
        assert lines[1] == "  - scan (0.5)"

    def test_unfinished_span_rendered_open(self):
        assert "(open)" in render_span_tree([Span("pending", 0.0)])
