"""Unit tests for tasks and task instances."""

import pytest

from repro.workflow.task import (
    InstanceCounter,
    TaskInstance,
    TaskSpec,
    identity_compute,
)


class TestTaskSpec:
    def test_reads_writes_coerced_to_frozensets(self):
        t = TaskSpec("t", reads=["a", "b"], writes=["c"])
        assert t.reads == frozenset({"a", "b"})
        assert t.writes == frozenset({"c"})
        assert isinstance(t.reads, frozenset)

    def test_run_produces_declared_writes(self):
        t = TaskSpec(
            "t", reads=["a"], writes=["b"],
            compute=lambda d: {"b": d["a"] * 2},
        )
        assert t.run({"a": 21}) == {"b": 42}

    def test_run_missing_write_rejected(self):
        t = TaskSpec("t", reads=[], writes=["b"], compute=lambda d: {})
        with pytest.raises(ValueError, match="did not produce"):
            t.run({})

    def test_run_undeclared_write_rejected(self):
        t = TaskSpec(
            "t", reads=[], writes=[], compute=lambda d: {"oops": 1}
        )
        with pytest.raises(ValueError, match="undeclared"):
            t.run({})

    def test_default_compute_is_identity(self):
        t = TaskSpec("t", reads=["a"])
        assert t.run({"a": 5}) == {}

    def test_identity_compute_writes_nothing(self):
        assert identity_compute({"x": 1}) == {}

class TestTaskInstance:
    def test_uid_format(self):
        inst = TaskInstance("wf1", "t3", 2)
        assert inst.uid == "wf1/t3#2"

    def test_str_hides_first_visit_superscript(self):
        assert str(TaskInstance("wf", "t3", 1)) == "t3"
        assert str(TaskInstance("wf", "t3", 2)) == "t3^2"

    def test_instances_hashable_and_comparable(self):
        a = TaskInstance("wf", "t1", 1)
        b = TaskInstance("wf", "t1", 2)
        assert a < b
        assert len({a, b, TaskInstance("wf", "t1", 1)}) == 2

    def test_default_number_is_one(self):
        assert TaskInstance("wf", "t").number == 1


class TestInstanceCounter:
    def test_numbers_increase_per_task(self):
        c = InstanceCounter("wf")
        assert c.next_instance("t1").number == 1
        assert c.next_instance("t1").number == 2
        assert c.next_instance("t2").number == 1
        assert c.visits("t1") == 2
        assert c.visits("t2") == 1

    def test_unvisited_task_has_zero_visits(self):
        assert InstanceCounter("wf").visits("t9") == 0

    def test_counter_binds_workflow_instance(self):
        c = InstanceCounter("wfX")
        inst = c.next_instance("t1")
        assert inst.workflow_instance == "wfX"
