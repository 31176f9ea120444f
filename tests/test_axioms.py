"""Tests for Axiom 1 and the strict-correctness audit (Definition 2)."""

from repro.core.axioms import (
    CorrectnessReport,
    HistoryStep,
    audit_strict_correctness,
    generates_incorrect_data,
)
from repro.workflow.log import SystemLog
from repro.workflow.spec import workflow
from repro.workflow.task import TaskInstance


def spec_ab():
    return (
        workflow("w")
        .task("a", reads=["x"], writes=["y"],
              compute=lambda d: {"y": d["x"] + 1})
        .task("b", reads=["y"], writes=["z"],
              compute=lambda d: {"z": d["y"] * 2})
        .chain("a", "b")
        .build()
    )


def history(*steps):
    return [HistoryStep("run", t, n) for t, n in steps]


class TestAxiom1:
    def test_condition1_malicious_code(self):
        log = SystemLog()
        rec = log.commit(TaskInstance("w", "t1", 1), reads={}, writes={})
        assert generates_incorrect_data(rec, ["w/t1#1"], [])
        assert not generates_incorrect_data(rec, [], [])

    def test_condition2_dirty_read(self):
        log = SystemLog()
        rec = log.commit(
            TaskInstance("w", "t2", 1), reads={"x": 3}, writes={}
        )
        assert generates_incorrect_data(rec, [], [("x", 3)])
        assert not generates_incorrect_data(rec, [], [("x", 2)])


class TestAudit:
    def test_accepts_correct_history(self):
        report = audit_strict_correctness(
            {"run": spec_ab()},
            {"x": 1, "y": 0, "z": 0},
            history(("a", 1), ("b", 1)),
            {"x": 1, "y": 2, "z": 4},
        )
        assert report.ok and report.problems == []

    def test_detects_wrong_final_value(self):
        report = audit_strict_correctness(
            {"run": spec_ab()},
            {"x": 1, "y": 0, "z": 0},
            history(("a", 1), ("b", 1)),
            {"x": 1, "y": 2, "z": 999},
        )
        assert not report.ok
        assert any("z" in p and "999" in p for p in report.problems)

    def test_detects_illegal_path(self):
        report = audit_strict_correctness(
            {"run": spec_ab()},
            {"x": 1, "y": 0, "z": 0},
            history(("b", 1), ("a", 1)),  # b cannot run first
            {"x": 1, "y": 2, "z": 4},
        )
        assert not report.ok
        assert any("illegal path" in p for p in report.problems)

    def test_detects_incomplete_workflow(self):
        report = audit_strict_correctness(
            {"run": spec_ab()},
            {"x": 1, "y": 0, "z": 0},
            history(("a", 1)),
            {"x": 1, "y": 2, "z": 0},
        )
        assert not report.ok
        assert any("did not reach an end node" in p for p in report.problems)

    def test_completion_check_optional(self):
        report = audit_strict_correctness(
            {"run": spec_ab()},
            {"x": 1, "y": 0, "z": 0},
            history(("a", 1)),
            {"x": 1, "y": 2, "z": 0},
            require_completion=False,
        )
        assert report.ok, report.problems

    def test_detects_bad_instance_numbers(self):
        report = audit_strict_correctness(
            {"run": spec_ab()},
            {"x": 1, "y": 0, "z": 0},
            history(("a", 2), ("b", 1)),  # a's first visit must be #1
            {"x": 1, "y": 2, "z": 4},
        )
        assert not report.ok
        assert any("instance number" in p for p in report.problems)

    def test_detects_missing_spec(self):
        report = audit_strict_correctness(
            {},
            {"x": 1},
            history(("a", 1)),
            {"x": 1},
        )
        assert not report.ok
        assert any("no spec" in p for p in report.problems)

    def test_detects_branch_divergence(self, diamond_spec):
        # With x=1 the replayed b chooses c; a history going through d
        # is inconsistent with the data.
        report = audit_strict_correctness(
            {"run": diamond_spec},
            {"x": 1, "yc": 0, "yd": 0},
            [
                HistoryStep("run", "a", 1),
                HistoryStep("run", "b", 1),
                HistoryStep("run", "d", 1),  # wrong arm
                HistoryStep("run", "e", 1),
            ],
            {"x": 1},
        )
        assert not report.ok
        assert any("illegal path" in p for p in report.problems)

    def test_report_truthiness(self):
        assert CorrectnessReport(ok=True)
        assert not CorrectnessReport(ok=False, problems=["x"])
