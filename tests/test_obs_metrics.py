"""Unit tests for metrics instruments and the pipeline collector."""

import pytest

from repro.obs.events import (
    AlertEnqueued,
    AlertLost,
    EventBus,
    HealFinished,
    NormalTaskRefused,
    StateTransition,
    TaskRedone,
    TaskUndone,
    UnitEmitted,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PipelineMetrics,
)


class TestCounter:
    def test_increments(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_tracks_high_water(self):
        g = Gauge("g")
        g.set(3)
        g.set(7)
        g.set(2)
        assert g.value == 2 and g.high_water == 7

    def test_inc_dec(self):
        g = Gauge("g")
        g.inc(5)
        g.inc(-2)
        assert g.value == 3 and g.high_water == 5


class TestHistogram:
    def test_bucketing_with_inf_tail(self):
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.0, 1.5, 4.0, 99.0):
            h.observe(v)
        # bisect_left: a value equal to a bound lands in that bound's
        # bucket (le semantics); 99 falls into the +inf tail.
        assert h.bucket_counts == (2, 1, 1, 1)
        assert h.count == 5
        assert h.sum == pytest.approx(106.0)
        assert h.mean == pytest.approx(21.2)

    def test_mean_of_empty_is_zero(self):
        assert Histogram("h", buckets=(1.0,)).mean == 0.0

    def test_validates_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        r = MetricsRegistry()
        assert r.counter("a_total") is r.counter("a_total")
        assert len(r) == 1

    def test_labels_distinguish_instruments(self):
        r = MetricsRegistry()
        scan = r.histogram("dwell", labels={"state": "SCAN"})
        normal = r.histogram("dwell", labels={"state": "NORMAL"})
        assert scan is not normal
        assert r.get("dwell", {"state": "SCAN"}) is scan
        assert len(r) == 2

    def test_label_order_does_not_matter(self):
        r = MetricsRegistry()
        a = r.gauge("g", labels={"x": "1", "y": "2"})
        b = r.gauge("g", labels={"y": "2", "x": "1"})
        assert a is b

    def test_kind_mismatch_raises(self):
        r = MetricsRegistry()
        r.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("thing")

    def test_metrics_sorted(self):
        r = MetricsRegistry()
        r.counter("b_total").inc()
        r.counter("a_total").inc()
        assert [m.name for m in r.metrics()] == ["a_total", "b_total"]


class TestPipelineMetrics:
    def feed(self, metrics, events):
        for e in events:
            metrics(e)

    def test_counts_queue_events(self):
        m = PipelineMetrics()
        m.start(0.0)
        self.feed(m, [
            AlertEnqueued(0.0, uid="a", queue_depth=1),
            AlertEnqueued(0.1, uid="b", queue_depth=2),
            AlertLost(0.2, uid="c", queue_depth=2),
            UnitEmitted(0.3, queue_depth=1, uid="a"),
            UnitEmitted(0.4, queue_depth=2, uid="b"),
        ])
        assert m.alerts_enqueued.value == 2
        assert m.alerts_lost.value == 1
        assert m.loss_fraction == pytest.approx(1 / 3)
        assert m.alert_depth.high_water == 2
        assert m.scan_steps.value == 2
        assert m.recovery_depth.high_water == 2

    def test_loss_fraction_zero_when_nothing_offered(self):
        assert PipelineMetrics().loss_fraction == 0.0

    def test_dwell_accounting_across_transitions(self):
        m = PipelineMetrics()
        m.start(0.0, state="NORMAL")
        m(StateTransition(2.0, old="NORMAL", new="SCAN"))
        m(StateTransition(5.0, old="SCAN", new="RECOVERY"))
        m.finalize(6.0)
        assert m.time_in_state("NORMAL") == pytest.approx(2.0)
        assert m.time_in_state("SCAN") == pytest.approx(3.0)
        assert m.time_in_state("RECOVERY") == pytest.approx(1.0)
        occ = m.occupancy()
        assert sum(occ.values()) == pytest.approx(1.0)
        assert occ["SCAN"] == pytest.approx(0.5)
        assert m.dwell_states() == ["NORMAL", "RECOVERY", "SCAN"]

    def test_finalize_is_idempotent(self):
        m = PipelineMetrics()
        m.start(0.0, state="SCAN")
        m.finalize(4.0)
        m.finalize(4.0)
        assert m.time_in_state("SCAN") == pytest.approx(4.0)

    def test_first_event_anchors_clock_when_not_started(self):
        m = PipelineMetrics()
        m(StateTransition(3.0, old="NORMAL", new="SCAN"))
        m.finalize(5.0)
        assert m.time_in_state("SCAN") == pytest.approx(2.0)

    def test_heal_and_task_events(self):
        m = PipelineMetrics()
        m.start(0.0)
        self.feed(m, [
            UnitEmitted(0.1, queue_depth=2, uid="a"),
            TaskUndone(0.2, uid="x"),
            TaskUndone(0.3, uid="y"),
            TaskRedone(0.4, uid="x"),
            HealFinished(0.5, undone=2, redone=1, kept=1, abandoned=0,
                         new_executions=1, duration=0.4),
            NormalTaskRefused(0.6, state="SCAN"),
        ])
        assert m.scan_steps.value == 1
        assert m.heals.value == 1
        assert m.tasks_undone.value == 2
        assert m.tasks_redone.value == 1
        assert m.undo_size.mean == pytest.approx(2.0)
        assert m.redo_size.mean == pytest.approx(2.0)  # redone + new
        assert m.heal_duration.mean == pytest.approx(0.4)
        assert m.normal_refused.value == 1

    def test_attach_subscribes_to_bus(self):
        bus = EventBus()
        m = PipelineMetrics().attach(bus)
        bus.publish(AlertEnqueued(0.0, uid="a", queue_depth=1))
        assert m.alerts_enqueued.value == 1

    def test_summary_rows_cover_headline_quantities(self):
        m = PipelineMetrics()
        m.start(0.0, state="NORMAL")
        m(AlertLost(0.5, uid="a", queue_depth=1))
        m.finalize(1.0)
        rows = dict(m.summary_rows())
        assert rows["alerts lost"] == 1
        assert rows["alert loss fraction"] == pytest.approx(1.0)
        assert "dwell[NORMAL] total" in rows
