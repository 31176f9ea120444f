"""Unit tests for alerts and the bounded queues of the architecture."""

import pytest

from repro.errors import QueueFullError
from repro.ids.alerts import Alert, BoundedQueue, PriorityBoundedQueue
from repro.obs.events import EventBus, QueueItemDropped
from repro.obs.tracing import ManualClock


class TestAlert:
    def test_orders_by_detection_time(self):
        early = Alert(1.0, "w/t2#1")
        late = Alert(5.0, "w/t1#1")
        assert early < late
        assert sorted([late, early])[0] is early

    def test_genuine_default(self):
        assert Alert(0.0, "u").genuine
        assert not Alert(0.0, "u", genuine=False).genuine


class TestBoundedQueue:
    def test_fifo(self):
        q = BoundedQueue(3)
        for x in "abc":
            assert q.offer(x)
        assert q.pop() == "a"
        assert q.peek() == "b"
        assert len(q) == 2

    def test_offer_counts_losses_when_full(self):
        q = BoundedQueue(2)
        q.offer("a")
        q.offer("b")
        assert not q.offer("c")
        assert q.lost == 1
        assert q.accepted == 2
        assert q.full

    def test_push_raises_without_counting_loss(self):
        q = BoundedQueue(1)
        q.push("a")
        with pytest.raises(QueueFullError):
            q.push("b")
        assert q.lost == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)

    def test_truthiness_and_iteration(self):
        q = BoundedQueue(2)
        assert not q
        q.offer(1)
        q.offer(2)
        assert q and list(q) == [1, 2]

    def test_drain_reopens_capacity(self):
        q = BoundedQueue(1)
        q.offer("a")
        assert not q.offer("b")
        q.pop()
        assert q.offer("c")

    def test_high_water_tracks_peak_depth(self):
        q = BoundedQueue(3)
        assert q.high_water == 0
        q.offer("a")
        q.offer("b")
        q.pop()
        q.offer("c")
        assert len(q) == 2
        assert q.high_water == 2  # never exceeded two at once
        q.offer("d")
        assert q.high_water == 3

    def test_rejected_offer_does_not_raise_high_water(self):
        q = BoundedQueue(1)
        q.offer("a")
        q.offer("b")  # lost
        assert q.high_water == 1

    def test_reset_stats_rebases_at_current_depth(self):
        q = BoundedQueue(2)
        q.offer("a")
        q.offer("b")
        q.offer("c")  # lost
        q.pop()
        q.reset_stats()
        assert q.lost == 0 and q.accepted == 0
        assert q.high_water == len(q) == 1  # re-based, not zeroed
        q.offer("d")
        assert q.accepted == 1 and q.high_water == 2

    def test_hook_sees_offer_lost_and_pop(self):
        calls = []
        q = BoundedQueue(1, hook=lambda op, queue: calls.append(
            (op, len(queue))))
        q.offer("a")
        q.offer("b")  # rejected: full
        q.pop()
        assert calls == [("offer", 1), ("lost", 1), ("pop", 0)]

    def test_set_hook_installs_and_removes(self):
        q = BoundedQueue(2)
        calls = []
        q.offer("before")  # no hook yet: unobserved
        q.set_hook(lambda op, queue: calls.append(op))
        q.offer("a")
        q.set_hook(None)
        q.offer("b")
        assert calls == ["offer"]


def by_digit(item):
    """Priority class of a test item like ``"2:x"`` → 2."""
    return int(item.split(":")[0])


class TestPriorityBoundedQueue:
    def make(self, capacity=4, classes=3, **kwargs):
        return PriorityBoundedQueue(capacity, classes=classes,
                                    priority_of=by_digit, **kwargs)

    def test_pop_serves_most_urgent_class_first(self):
        q = self.make()
        for item in ["2:a", "0:b", "1:c", "0:d"]:
            assert q.offer(item)
        assert [q.pop() for _ in range(4)] == ["0:b", "0:d", "1:c", "2:a"]

    def test_fifo_within_class(self):
        q = self.make(capacity=6)
        for item in ["1:a", "1:b", "1:c"]:
            q.offer(item)
        assert q.pop() == "1:a"
        q.offer("1:d")
        assert [q.pop(), q.pop(), q.pop()] == ["1:b", "1:c", "1:d"]

    def test_single_class_degenerates_to_fifo(self):
        q = PriorityBoundedQueue(3, classes=1)
        for x in "abc":
            q.offer(x)
        assert [q.pop(), q.pop(), q.pop()] == ["a", "b", "c"]

    def test_iteration_is_drain_order(self):
        q = self.make()
        for item in ["2:a", "0:b", "1:c"]:
            q.offer(item)
        assert list(q) == ["0:b", "1:c", "2:a"]
        assert q.peek() == "0:b"

    def test_offer_without_eviction_rejects_when_full(self):
        q = self.make(capacity=2)
        q.offer("2:a")
        q.offer("2:b")
        assert not q.offer("0:urgent")  # evict_lower off: plain reject
        assert q.lost == 1
        assert q.lost_by_class == (1, 0, 0)
        assert len(q) == 2

    def test_eviction_preempts_newest_least_urgent(self):
        q = self.make(capacity=3, evict_lower=True)
        for item in ["2:a", "2:b", "1:c"]:
            q.offer(item)
        assert q.offer("0:urgent")           # evicts 2:b (newest of 2)
        assert len(q) == 3
        assert list(q) == ["0:urgent", "1:c", "2:a"]
        assert q.lost == 1                   # the eviction is a loss...
        assert q.lost_by_class == (0, 0, 1)  # ...of the victim's class

    def test_eviction_refused_when_nothing_less_urgent(self):
        q = self.make(capacity=2, evict_lower=True)
        q.offer("0:a")
        q.offer("1:b")
        assert not q.offer("1:c")  # class 1 cannot evict class 1
        assert q.lost_by_class == (0, 1, 0)
        assert list(q) == ["0:a", "1:b"]

    def test_push_never_evicts(self):
        q = self.make(capacity=1, evict_lower=True)
        q.push("2:a")
        with pytest.raises(QueueFullError):
            q.push("0:b")
        assert q.lost == 0 and list(q) == ["2:a"]

    def test_high_water_and_accepted_preserved(self):
        q = self.make(capacity=3)
        for item in ["0:a", "1:b", "2:c"]:
            q.offer(item)
        q.pop()
        assert q.high_water == 3
        assert q.accepted == 3
        assert q.accepted_by_class == (1, 1, 1)
        assert q.depth_of_class(1) == 1

    def test_reset_stats_clears_per_class_breakdown(self):
        q = self.make(capacity=2)
        q.offer("0:a")
        q.offer("1:b")
        q.offer("2:c")  # lost
        q.reset_stats()
        assert q.lost == 0 and q.accepted == 0
        assert q.lost_by_class == (0, 0, 0)
        assert q.accepted_by_class == (0, 0, 0)
        assert q.high_water == len(q) == 2  # re-based like the base queue

    def test_drop_accounting_under_mixed_priorities(self):
        q = self.make(capacity=2, evict_lower=True)
        q.offer("2:a")
        q.offer("2:b")
        q.offer("1:c")       # evicts 2:b
        q.offer("1:d")       # evicts 2:a
        assert not q.offer("1:e")  # no class-2 victims left: rejected
        assert q.lost == 3
        assert q.lost_by_class == (0, 1, 2)
        assert q.accepted == 4
        assert sum(q.lost_by_class) == q.lost

    def test_drop_events_carry_priority_class(self):
        bus = EventBus()
        drops = []
        bus.subscribe(drops.append, types=[QueueItemDropped])
        clock = ManualClock(5.0)
        q = self.make(capacity=2, evict_lower=True)
        q.instrument("central", bus, clock)
        q.offer("2:a")
        q.offer("2:b")
        q.offer("0:urgent")  # evicts 2:b -> drop event with class 2
        q.offer("2:late")    # rejected  -> drop event with class 2
        q.offer("1:mid")     # evicts 2:a -> drop event with class 2
        assert [d.priority for d in drops] == [2, 2, 2]
        assert [d.queue for d in drops] == ["central"] * 3
        assert drops[-1].lost_total == 3 == q.lost

    def test_hook_sees_eviction_as_lost(self):
        calls = []
        q = self.make(capacity=1, evict_lower=True,
                      hook=lambda op, queue: calls.append(op))
        q.offer("2:a")
        q.offer("0:b")  # evicts 2:a: lost + offer
        assert calls == ["offer", "lost", "offer"]

    def test_priority_class_out_of_range_raises(self):
        q = PriorityBoundedQueue(2, classes=2, priority_of=by_digit)
        with pytest.raises(ValueError):
            q.offer("5:x")

    def test_classes_validation(self):
        with pytest.raises(ValueError):
            PriorityBoundedQueue(2, classes=0)


class TestConcurrentHammer:
    """The queues are lock-free by design (one owning thread);
    these hammers pin the two halves of that contract: externally
    serialized access is exact, and the dynamic sanitizer catches any
    unlocked cross-thread use deterministically."""

    THREADS = 8

    def _hammer(self, worker):
        import threading

        barrier = threading.Barrier(self.THREADS)
        errors = []

        def run(tid):
            barrier.wait()
            try:
                worker(tid)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        ts = [threading.Thread(target=run, args=(i,))
              for i in range(self.THREADS)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        if errors:
            raise errors[0]

    def test_externally_locked_offers_exact(self):
        import threading

        lock = threading.Lock()
        q = PriorityBoundedQueue(10_000_000, classes=1)
        n = 2_000

        def work(tid):
            for _ in range(n):
                with lock:
                    assert q.offer(object())

        self._hammer(work)
        assert len(q) == self.THREADS * n
        assert q.accepted == self.THREADS * n
        assert q.lost == 0

    def test_sanitizer_passes_locked_hammer(self):
        from repro.lint.sanitizer import RaceSanitizer

        san = RaceSanitizer()
        lock = san.wrap_lock("queue-external")
        q = PriorityBoundedQueue(10_000_000, classes=1)
        san.wrap_method(q, "offer", "queue[hammer]")
        n = 500

        def work(tid):
            for _ in range(n):
                with lock:
                    q.offer(object())

        self._hammer(work)
        assert san.violations == (), san.report().render_text()
        assert q.accepted == self.THREADS * n

    def test_sanitizer_catches_unlocked_cross_thread_use(self):
        # Sequential threads, no interleaving at all — the lockset
        # verdict still fires, which is the whole point of Eraser.
        import threading

        from repro.lint.sanitizer import RaceSanitizer

        san = RaceSanitizer()
        q = PriorityBoundedQueue(100, classes=1)
        san.wrap_method(q, "offer", "queue[central]")

        for name in ("t1", "t2"):
            t = threading.Thread(target=lambda: q.offer(object()),
                                 name=name)
            t.start()
            t.join()
        rules = [d.rule for d in san.violations]
        assert rules == ["RACE101"]
        assert san.violations[0].where == "queue[central]"
