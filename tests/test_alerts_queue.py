"""Unit tests for alerts and the bounded queues of the architecture."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestBoundedQueue:
    def test_fifo(self):
        q = BoundedQueue(3)
        for x in "abc":
            assert q.offer(x)
        assert q.pop() == "a"
        assert list(q) == ["b", "c"]

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


def by_digit(item):
    """Priority class of a test item like ``"2:x"`` → 2."""
    return int(item.split(":")[0])


class TestPriorityBoundedQueue:
    def make(self, capacity=4):
        return PriorityBoundedQueue(capacity, priority_of=by_digit)

    @staticmethod
    def dropped_classes(q):
        """Classes of the items ``q`` drops from now on, in order."""
        bus, classes = EventBus(), []
        bus.subscribe(lambda e: classes.append(e.priority),
                      types=[QueueItemDropped])
        q.instrument("q", bus, ManualClock(0.0))
        return classes

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
        q = PriorityBoundedQueue(3)  # no priority_of: every item class 0
        for x in "abc":
            q.offer(x)
        assert [q.pop(), q.pop(), q.pop()] == ["a", "b", "c"]

    def test_iteration_is_drain_order(self):
        q = self.make()
        for item in ["2:a", "0:b", "1:c"]:
            q.offer(item)
        assert list(q) == ["0:b", "1:c", "2:a"]
        assert q.pop() == "0:b"

    def test_eviction_preempts_newest_least_urgent(self):
        q = self.make(capacity=3)
        dropped = self.dropped_classes(q)
        for item in ["2:a", "2:b", "1:c"]:
            q.offer(item)
        assert q.offer("0:urgent")           # evicts 2:b (newest of 2)
        assert len(q) == 3
        assert list(q) == ["0:urgent", "1:c", "2:a"]
        assert q.lost == 1                   # the eviction is a loss...
        assert dropped == [2]                # ...of the victim's class

    def test_eviction_refused_when_nothing_less_urgent(self):
        q = self.make(capacity=2)
        dropped = self.dropped_classes(q)
        q.offer("0:a")
        q.offer("1:b")
        assert not q.offer("1:c")  # class 1 cannot evict class 1
        assert dropped == [1]
        assert list(q) == ["0:a", "1:b"]

    def test_push_never_evicts(self):
        q = self.make(capacity=1)
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
        assert list(q) == ["1:b", "2:c"]

    def test_drop_accounting_under_mixed_priorities(self):
        q = self.make(capacity=2)
        dropped = self.dropped_classes(q)
        q.offer("2:a")
        q.offer("2:b")
        q.offer("1:c")       # evicts 2:b
        q.offer("1:d")       # evicts 2:a
        assert not q.offer("1:e")  # no class-2 victims left: rejected
        assert q.lost == 3
        assert dropped == [2, 2, 1]
        assert q.accepted == 4

    def test_drop_events_carry_priority_class(self):
        bus = EventBus()
        drops = []
        bus.subscribe(drops.append, types=[QueueItemDropped])
        clock = ManualClock(5.0)
        q = self.make(capacity=2)
        q.instrument("central", bus, clock)
        q.offer("2:a")
        q.offer("2:b")
        q.offer("0:urgent")  # evicts 2:b -> drop event with class 2
        q.offer("2:late")    # rejected  -> drop event with class 2
        q.offer("1:mid")     # evicts 2:a -> drop event with class 2
        assert [d.priority for d in drops] == [2, 2, 2]
        assert [d.queue for d in drops] == ["central"] * 3
        assert drops[-1].lost_total == 3 == q.lost

    def test_priority_class_out_of_range_raises(self):
        q = self.make(capacity=2)
        with pytest.raises(ValueError):
            q.offer("3:x")


#: Mixed queue operations: offer (may evict in a priority queue), push
#: (may raise), pop (may find the queue empty).
queue_ops = st.lists(
    st.tuples(st.sampled_from(("offer", "push", "pop")),
              st.integers(0, 2)),
    max_size=60,
)


class TestRunningCount:
    """``len``, truth tests and ``full`` read a running count that
    ``offer``, ``pop`` and an eviction keep equal to a recount of the
    storage."""

    @staticmethod
    def check(q):
        stored = len(list(q))
        assert len(q) == stored
        assert bool(q) is (stored > 0)
        assert q.full is (stored >= q.capacity)
        assert q.high_water >= stored

    def drive(self, q, ops):
        peak = pops = rejected = 0
        for i, (op, cls) in enumerate(ops):
            item = f"{cls}:{i}"
            if op == "offer":
                rejected += not q.offer(item)
            elif op == "push":
                try:
                    q.push(item)
                except QueueFullError:
                    pass
            else:
                try:
                    q.pop()
                    pops += 1
                except IndexError:
                    pass
            self.check(q)
            peak = max(peak, len(list(q)))
            # Stored = accepted − popped − evicted (losses not rejected).
            evicted = q.lost - rejected
            assert q.accepted - pops - evicted == len(list(q))
        assert q.high_water == peak

    @settings(max_examples=150, deadline=None)
    @given(ops=queue_ops, capacity=st.integers(1, 5))
    def test_fifo_queue(self, ops, capacity):
        self.drive(BoundedQueue(capacity), ops)

    @settings(max_examples=150, deadline=None)
    @given(ops=queue_ops, capacity=st.integers(1, 5))
    def test_priority_queue_with_evictions(self, ops, capacity):
        self.drive(PriorityBoundedQueue(capacity, priority_of=by_digit),
                   ops)

    def test_eviction_keeps_the_count_and_the_published_depth(self):
        bus, depths = EventBus(), []
        bus.subscribe(lambda e: depths.append(e.depth),
                      types=[QueueItemDropped])
        q = PriorityBoundedQueue(2, priority_of=by_digit)
        q.instrument("q", bus, ManualClock(0.0))
        q.offer("2:a")
        q.offer("2:b")
        assert q.offer("0:c")  # evicts 2:b: one slot freed, then taken
        assert len(q) == 2 and list(q) == ["0:c", "2:a"]
        assert not q.offer("2:d")  # rejected at capacity
        assert depths == [1, 2]
