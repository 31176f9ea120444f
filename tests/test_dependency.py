"""Unit tests for data and control dependency analysis (Definition 1)."""

import pytest

from repro.errors import RecoveryError
from repro.workflow.dependency import (
    ControlDependencies,
    DependencyAnalyzer,
    DependencyKind,
)
from repro.workflow.log import SystemLog
from repro.workflow.task import TaskInstance


def commit(log, wf, task, reads=None, writes=None, n=1):
    return log.commit(
        TaskInstance(wf, task, n),
        reads=reads or {},
        writes=writes or {},
    )


@pytest.fixture
def tx_tb_log():
    """The paper's Section II-C example: ``t_x: x = a + b`` then
    ``t_b: b = x - 1`` (adjacent in the log)."""
    log = SystemLog()
    commit(log, "w", "tx", reads={"a": 0, "b": 0}, writes={"x": 1})
    commit(log, "w", "tb", reads={"x": 1}, writes={"b": 1})
    return log


class TestDataDependencies:
    def test_paper_tx_tb_example(self, tx_tb_log):
        dep = DependencyAnalyzer(tx_tb_log)
        # t_x →f t_b: t_b reads x written by t_x.
        flows = dep.flow_dependents("w/tx#1")
        assert [(e.dst, e.kind) for e in flows] == [
            ("w/tb#1", DependencyKind.FLOW)
        ]
        assert flows[0].objects == frozenset({"x"})
        # t_x →a t_b: t_b overwrites b, which t_x read.
        antis = dep.anti_edges_from("w/tx#1")
        assert [(e.dst, e.objects) for e in antis] == [
            ("w/tb#1", frozenset({"b"}))
        ]

    def test_flow_sources_point_at_version_writers(self):
        log = SystemLog()
        commit(log, "w", "t1", writes={"x": 1})
        commit(log, "w", "t2", writes={"x": 2})
        commit(log, "w", "t3", reads={"x": 2}, writes={})
        dep = DependencyAnalyzer(log)
        srcs = dep.flow_sources("w/t3#1")
        assert [e.src for e in srcs] == ["w/t2#1"]  # not t1: overwritten

    def test_initial_version_has_no_flow_source(self):
        log = SystemLog()
        commit(log, "w", "t1", reads={"x": 0})
        dep = DependencyAnalyzer(log)
        assert dep.flow_sources("w/t1#1") == ()

    def test_anti_edge_only_first_later_writer(self):
        log = SystemLog()
        commit(log, "w", "r", reads={"x": 0})
        commit(log, "w", "w1", writes={"x": 1})
        commit(log, "w", "w2", writes={"x": 2})
        dep = DependencyAnalyzer(log)
        antis = dep.anti_edges_from("w/r#1")
        assert [e.dst for e in antis] == ["w/w1#1"]

    def test_output_edge_next_writer_only(self):
        log = SystemLog()
        commit(log, "w", "w1", writes={"x": 1})
        commit(log, "w", "w2", writes={"x": 2})
        commit(log, "w", "w3", writes={"x": 3})
        dep = DependencyAnalyzer(log)
        outs = dep.output_edges_from("w/w1#1")
        assert [e.dst for e in outs] == ["w/w2#1"]

    def test_cross_workflow_flow(self):
        log = SystemLog()
        commit(log, "wf1", "t1", writes={"x": 1})
        commit(log, "wf2", "t8", reads={"x": 1})
        dep = DependencyAnalyzer(log)
        assert [e.dst for e in dep.flow_dependents("wf1/t1#1")] == [
            "wf2/t8#1"
        ]

    def test_flow_closure_transitive(self):
        log = SystemLog()
        commit(log, "w", "t1", writes={"x": 1})
        commit(log, "w", "t2", reads={"x": 1}, writes={"y": 1})
        commit(log, "w", "t3", reads={"y": 1}, writes={"z": 1})
        commit(log, "w", "t4", reads={"q": 0})
        dep = DependencyAnalyzer(log)
        closure = dep.flow_closure(["w/t1#1"])
        assert closure == frozenset({"w/t2#1", "w/t3#1"})

    def test_unknown_uid_raises(self, tx_tb_log):
        dep = DependencyAnalyzer(tx_tb_log)
        with pytest.raises(RecoveryError):
            dep.record("w/ghost#1")

    def test_all_data_edges_cover_kinds(self, tx_tb_log):
        dep = DependencyAnalyzer(tx_tb_log)
        kinds = {
            e.kind for r in tx_tb_log.normal_records()
            for e in (*dep.flow_dependents(r.uid),
                      *dep.anti_edges_from(r.uid))
        }
        assert DependencyKind.FLOW in kinds
        assert DependencyKind.ANTI in kinds


class TestLiteralDefinitionOne:
    def test_literal_flow_includes_interposed_writers(self):
        log = SystemLog()
        commit(log, "w", "t1", writes={"a": 1})
        commit(log, "w", "tk", writes={"x": 1})
        commit(log, "w", "t2", reads={"x": 1})
        dep = DependencyAnalyzer(log)
        # Literal form: W(t1) ∪ W(tk) intersects R(t2) via tk's write.
        assert dep.literal_flow("w/t1#1", "w/t2#1")
        # Version-based form correctly attributes the flow to tk only.
        assert [e.src for e in dep.flow_sources("w/t2#1")] == ["w/tk#1"]

    def test_literal_relations_require_log_order(self, tx_tb_log):
        dep = DependencyAnalyzer(tx_tb_log)
        assert not dep.literal_flow("w/tb#1", "w/tx#1")
        assert not dep.literal_anti("w/tb#1", "w/tx#1")
        assert not dep.literal_output("w/tb#1", "w/tx#1")

    def test_literal_anti_and_output(self, tx_tb_log):
        dep = DependencyAnalyzer(tx_tb_log)
        assert dep.literal_anti("w/tx#1", "w/tb#1")     # b rewritten
        assert not dep.literal_output("w/tx#1", "w/tb#1")

    def test_version_flow_implies_literal_flow(self):
        log = SystemLog()
        commit(log, "w", "t1", writes={"x": 1})
        commit(log, "w", "t2", reads={"x": 1}, writes={"y": 1})
        dep = DependencyAnalyzer(log)
        for edge in dep.flow_dependents("w/t1#1"):
            assert dep.literal_flow(edge.src, edge.dst)


class TestControlDependencies:
    def test_diamond(self, diamond_spec):
        cd = ControlDependencies(diamond_spec)
        assert cd.controllers_of("c") == frozenset({"b"})
        assert cd.controllers_of("d") == frozenset({"b"})
        assert cd.controllers_of("e") == frozenset()  # unavoidable
        assert cd.dependents_of("b") == frozenset({"c", "d"})
        assert cd.depends("b", "c") and not cd.depends("b", "e")

    def test_instance_level_control_dependents(self, diamond_spec):
        log = SystemLog()
        commit(log, "run", "a", writes={"ya": 1})
        commit(log, "run", "b", reads={"ya": 1}, writes={"yb": 1})
        commit(log, "run", "c", reads={"yb": 1}, writes={"yc": 1})
        dep = DependencyAnalyzer(log, {"run": diamond_spec})
        assert dep.control_dependents("run/b#1") == ("run/c#1",)
        assert dep.control_sources("run/c#1") == ("run/b#1",)
        assert dep.control_dependents("run/a#1") == ()

    def test_missing_spec_raises(self):
        log = SystemLog()
        commit(log, "run", "a")
        dep = DependencyAnalyzer(log)
        with pytest.raises(RecoveryError, match="no workflow spec"):
            dep.control_model("run")

    def test_nested_diamonds_transitive(self):
        from repro.workflow.spec import workflow

        spec = (
            workflow("nested")
            .task("s", choose=lambda d: "m1")
            .task("m1", choose=lambda d: "x")
            .task("x").task("y")
            .task("m2")
            .task("j")
            .edge("s", "m1").edge("s", "m2")
            .edge("m1", "x").edge("m1", "y")
            .edge("x", "j").edge("y", "j").edge("m2", "j")
            .build()
        )
        cd = ControlDependencies(spec)
        # x is controlled by both the inner and outer branch.
        assert cd.controllers_of("x") == frozenset({"s", "m1"})
        assert cd.controllers_of("j") == frozenset()
