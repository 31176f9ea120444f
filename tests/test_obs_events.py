"""Unit tests for the observability event bus and typed events."""

import pytest

from repro.obs.events import (
    AlertEnqueued,
    AlertLost,
    EventBus,
    EventRecorder,
    HealStarted,
    ScanStep,
    StateTransition,
    TaskUndone,
)


class TestEvents:
    def test_kind_is_type_name(self):
        assert AlertLost(1.0, uid="w/t1#1", queue_depth=3).kind == "AlertLost"
        assert ScanStep(0.0, uid="u", outstanding_units=0,
                        cost=1).kind == "ScanStep"

    def test_to_dict_is_flat_and_tagged(self):
        d = AlertEnqueued(2.5, uid="w/t1#1", queue_depth=2).to_dict()
        assert d == {"event": "AlertEnqueued", "time": 2.5,
                     "uid": "w/t1#1", "queue_depth": 2}

    def test_to_dict_converts_tuples_to_lists(self):
        d = HealStarted(1.0, malicious=("a", "b")).to_dict()
        assert d["malicious"] == ["a", "b"]

    def test_events_are_frozen(self):
        e = TaskUndone(1.0, uid="u")
        with pytest.raises(Exception):
            e.time = 2.0

    def test_transition_category_fallback(self):
        plain = StateTransition(0.0, old="NORMAL", new="SCAN")
        assert plain.category_from == "NORMAL"
        assert plain.category_to == "SCAN"
        rich = StateTransition(0.0, old="(3, 0)", new="(2, 1)",
                               old_category="SCAN", new_category="SCAN")
        assert rich.category_from == "SCAN"
        assert rich.category_to == "SCAN"


class TestEventBus:
    def test_inactive_until_subscribed(self):
        bus = EventBus()
        assert not bus.active
        bus.subscribe(lambda e: None)
        assert bus.active

    def test_publish_without_subscribers_is_inert(self):
        EventBus().publish(TaskUndone(0.0, uid="u"))  # must not raise

    def test_dispatch_in_subscription_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append("first"))
        bus.subscribe(lambda e: seen.append("second"))
        bus.publish(TaskUndone(0.0, uid="u"))
        assert seen == ["first", "second"]

    def test_typed_subscription_filters(self):
        bus = EventBus()
        losses = []
        bus.subscribe(losses.append, types=[AlertLost])
        bus.publish(AlertEnqueued(0.0, uid="a", queue_depth=1))
        bus.publish(AlertLost(1.0, uid="b", queue_depth=8))
        assert [e.uid for e in losses] == ["b"]

    def test_all_subscribers_see_typed_events_too(self):
        bus = EventBus()
        everything, typed = [], []
        bus.subscribe(everything.append)
        bus.subscribe(typed.append, types=[AlertLost])
        bus.publish(AlertLost(0.0, uid="x", queue_depth=1))
        assert len(everything) == 1 and len(typed) == 1

    def test_reentrant_publish_from_handler(self):
        # The health monitor republishes onto the bus mid-dispatch: the
        # nested publish reaches every handler before the outer one
        # resumes.
        bus = EventBus()
        seen = []

        def republisher(event):
            if isinstance(event, AlertEnqueued):
                bus.publish(ScanStep(event.time, uid=event.uid,
                                     outstanding_units=0, cost=1))

        bus.subscribe(republisher)
        bus.subscribe(lambda event: seen.append(event.kind))
        bus.publish(AlertEnqueued(0.0, uid="u1", queue_depth=1))
        assert seen == ["ScanStep", "AlertEnqueued"]

    def test_resubscription_mid_dispatch_applies_from_next_publish(self):
        # Copy-on-write handler lists: a handler that subscribes
        # another leaves the current dispatch as it began.
        bus = EventBus()
        seen = []

        def first(event):
            seen.append("first")
            if len(seen) == 1:
                bus.subscribe(lambda e: seen.append("late"))

        bus.subscribe(first)
        bus.subscribe(lambda e: seen.append("always"))
        bus.publish(TaskUndone(0.0, uid="u"))
        assert seen == ["first", "always"]
        bus.publish(TaskUndone(1.0, uid="u"))
        assert seen == ["first", "always", "first", "always", "late"]


class TestEventRecorder:
    def test_records_in_order_and_filters_by_type(self):
        bus = EventBus()
        rec = EventRecorder().attach(bus)
        alerts = EventRecorder()
        bus.subscribe(alerts, types=[AlertEnqueued])
        bus.publish(AlertEnqueued(0.0, uid="a", queue_depth=1))
        bus.publish(TaskUndone(1.0, uid="b"))
        bus.publish(AlertEnqueued(2.0, uid="c", queue_depth=2))
        assert [e.kind for e in rec.events] == [
            "AlertEnqueued", "TaskUndone", "AlertEnqueued"]
        assert [e.uid for e in alerts.events] == ["a", "c"]
