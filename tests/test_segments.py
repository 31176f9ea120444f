"""Tests for segmented (distributed) logs.

The paper's footnote 1 claims distribution "does not affect our
discussion"; these tests make that executable: healing over a merged
segmented log produces exactly the same recovery as over the
centralized log.
"""

import pytest

from repro.core.healer import Healer
from repro.errors import LogError
from repro.scenarios.figure1 import Figure1Scenario, build_figure1
from repro.workflow.segments import LogSegment, SegmentedLog
from repro.workflow.task import TaskInstance


def inst(task, wf="w", n=1):
    return TaskInstance(wf, task, n)


class TestLogSegment:
    def test_lamport_clock_monotone(self):
        seg = LogSegment("n1")
        e1 = seg.commit(inst("a"), {}, {})
        e2 = seg.commit(inst("b"), {}, {})
        assert e2.lamport > e1.lamport
        assert (e1.local_seq, e2.local_seq) == (0, 1)

    def test_witness_advances_clock(self):
        seg = LogSegment("n1")
        seg.witness(10)
        entry = seg.commit(inst("a"), {}, {})
        assert entry.lamport == 11

    def test_witness_never_rewinds(self):
        seg = LogSegment("n1")
        seg.commit(inst("a"), {}, {})
        seg.witness(0)
        assert seg.clock == 1


class TestSegmentedLog:
    def test_node_validation(self):
        with pytest.raises(LogError):
            SegmentedLog([])
        with pytest.raises(LogError):
            SegmentedLog(["n1", "n1"])
        with pytest.raises(LogError):
            SegmentedLog(["n1"]).segment("ghost")

    def test_notify_creates_cross_node_order(self):
        slog = SegmentedLog(["n1", "n2"])
        first = slog.commit_on("n1", inst("a"), {}, {"x": 1},
                               notify=["n2"])
        second = slog.commit_on("n2", inst("b", wf="v"), {"x": 1}, {})
        assert second.lamport > first.lamport
        merged = slog.merge()
        assert [r.uid for r in merged.normal_records()] == [
            "w/a#1", "v/b#1"
        ]

    def test_concurrent_commits_merge_deterministically(self):
        slog = SegmentedLog(["n1", "n2"])
        slog.commit_on("n2", inst("b", wf="v"), {}, {})
        slog.commit_on("n1", inst("a"), {}, {})
        merged = slog.merge()
        # Equal Lamport stamps break ties by node id.
        assert [r.uid for r in merged.normal_records()] == [
            "w/a#1", "v/b#1"
        ]

class TestDistributedFigure1:
    """Figure 1's workflows distributed over three processors."""

    @staticmethod
    def distribute(scenario, notify_all: bool):
        """Replay the centralized log into per-processor segments.

        ``notify_all`` broadcasts every commit (a total order); the
        causal variant notifies only nodes that later touch the same
        data objects, as a real distributed WFMS would (the object's
        owner serializes conflicting accesses).
        """
        assignment = {"wf1": "P1", "wf2": "P2"}
        slog = SegmentedLog(["P1", "P2", "P3"])
        records = scenario.log.normal_records()
        # Which nodes touch each object after a given commit?
        touchers = {}
        for r in records:
            for name in list(r.reads) + list(r.writes):
                touchers.setdefault(name, set()).add(
                    assignment[r.instance.workflow_instance]
                )
        for r in records:
            node = assignment[r.instance.workflow_instance]
            if notify_all:
                notify = [n for n in slog.nodes if n != node]
            else:
                notify = sorted(
                    {
                        n
                        for name in list(r.reads) + list(r.writes)
                        for n in touchers.get(name, ())
                    }
                    - {node}
                )
            slog.commit_on(
                node, r.instance, r.reads, r.writes, r.chosen,
                notify=notify,
            )
        return slog

    def test_broadcast_merge_reproduces_central_order(self, figure1):
        slog = self.distribute(figure1, notify_all=True)
        merged = slog.merge()
        assert [r.uid for r in merged.normal_records()] == [
            r.uid for r in figure1.log.normal_records()
        ]

    def test_healing_over_merged_log_identical(self, figure1):
        """The headline property: distribution does not change the
        recovery (footnote 1)."""
        central_report = build_figure1(attacked=True).heal_now()

        slog = self.distribute(figure1, notify_all=True)
        merged = slog.merge()
        healer = Healer(figure1.store, merged,
                        figure1.specs_by_instance)
        report = healer.heal([figure1.malicious_uid])

        T = Figure1Scenario.task_ids
        assert T(report.undone) == T(central_report.undone)
        assert T(report.redone) == T(central_report.redone)
        assert T(report.abandoned) == T(central_report.abandoned)
        assert T(report.new_executions) == T(
            central_report.new_executions
        )

    def test_causal_notification_still_heals_correctly(self, figure1):
        """With only conflict-based notification the merged order may
        differ from the central one, but causality (and therefore the
        recovery outcome) is preserved."""
        from repro.core.axioms import audit_strict_correctness

        slog = self.distribute(figure1, notify_all=False)
        merged = slog.merge()
        # Every reader still follows the writer of the version it read.
        pos = {r.uid: i for i, r in enumerate(merged.normal_records())}
        for r in merged.normal_records():
            for name, ver in r.reads.items():
                writer = merged.writer_of_version(name, ver)
                if writer is not None:
                    assert pos[writer.uid] < pos[r.uid]

        healer = Healer(figure1.store, merged,
                        figure1.specs_by_instance)
        report = healer.heal([figure1.malicious_uid])
        audit = audit_strict_correctness(
            figure1.specs_by_instance,
            figure1.initial_data,
            report.final_history,
            figure1.store.snapshot(),
        )
        assert audit.ok, audit.problems
        T = Figure1Scenario.task_ids
        assert T(report.undone) == figure1.EXPECTED_UNDONE
