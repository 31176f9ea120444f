"""Unit tests for the system log."""

import pytest

from repro.errors import LogError
from repro.workflow.log import RecordKind, SystemLog
from repro.workflow.task import TaskInstance


def commit(log, wf, task, n=1, reads=None, writes=None, chosen=None,
           kind=RecordKind.NORMAL):
    return log.commit(
        TaskInstance(wf, task, n),
        reads=reads or {},
        writes=writes or {},
        chosen=chosen,
        kind=kind,
    )


class TestCommit:
    def test_sequence_numbers_increase(self):
        log = SystemLog()
        r1 = commit(log, "w", "t1")
        r2 = commit(log, "w", "t2")
        assert (r1.seq, r2.seq) == (0, 1)
        assert len(log) == 2

    def test_duplicate_normal_commit_rejected(self):
        log = SystemLog()
        commit(log, "w", "t1")
        with pytest.raises(LogError, match="already committed"):
            commit(log, "w", "t1")

    def test_recovery_kinds_may_recur(self):
        log = SystemLog()
        commit(log, "w", "t1")
        commit(log, "w", "t1", kind=RecordKind.UNDO)
        commit(log, "w", "t1", kind=RecordKind.REDO)
        commit(log, "w", "t1", kind=RecordKind.UNDO)  # second pass
        assert len(log.records(RecordKind.UNDO)) == 2

    def test_unknown_kind_rejected(self):
        log = SystemLog()
        with pytest.raises(LogError, match="unknown record kind"):
            commit(log, "w", "t1", kind="banana")

    def test_contains_checks_normal_records_only(self):
        log = SystemLog()
        commit(log, "w", "t1", kind=RecordKind.UNDO)
        assert "w/t1#1" not in log
        commit(log, "w", "t1")
        assert "w/t1#1" in log


class TestQueries:
    def test_precedence_follows_commit_order(self):
        log = SystemLog()
        commit(log, "a", "t1")
        commit(log, "b", "t9")
        assert log.position("a/t1#1") < log.position("b/t9#1")

    def test_trace_filters_by_workflow_and_kind(self):
        log = SystemLog()
        commit(log, "a", "t1")
        commit(log, "b", "t7")
        commit(log, "a", "t2")
        commit(log, "a", "t1", kind=RecordKind.REDO)
        trace = log.trace("a")
        assert [str(r.instance) for r in trace] == ["t1", "t2"]

    def test_succ_is_within_own_trace(self):
        # Reproduces the paper: succ(t2) in L1 excludes other workflows.
        log = SystemLog()
        commit(log, "wf1", "t1")
        commit(log, "wf2", "t7")
        commit(log, "wf1", "t2")
        commit(log, "wf2", "t8")
        commit(log, "wf1", "t3")
        succ = log.succ("wf1/t2#1")
        assert [r.uid for r in succ] == ["wf1/t3#1"]

    def test_writers_of_and_writer_of_version(self):
        log = SystemLog()
        commit(log, "w", "t1", writes={"x": 1})
        commit(log, "w", "t2", writes={"x": 2, "y": 0})
        assert [r.uid for r in log.writers_of("x")] == ["w/t1#1", "w/t2#1"]
        assert log.writer_of_version("x", 2).uid == "w/t2#1"
        assert log.writer_of_version("x", 0) is None  # pre-log version

    def test_get_missing_record_raises(self):
        log = SystemLog()
        with pytest.raises(LogError):
            log.get("w/t1#1")

    def test_records_filters_kind(self):
        log = SystemLog()
        commit(log, "w", "t1")
        commit(log, "w", "t1", kind=RecordKind.UNDO)
        assert len(log.records()) == 2
        assert len(log.normal_records()) == 1
        assert log.records(RecordKind.UNDO)[0].kind == RecordKind.UNDO
