"""Tests for the operational healer — candidate resolution, settle-pass
semantics, and the paper's Figure 1 outcome."""

import pytest

from repro.core.actions import Action
from repro.core.healer import Healer
from repro.errors import RecoveryError
from repro.scenarios.figure1 import Figure1Scenario
from repro.workflow.data import TOMBSTONE, DataStore
from repro.workflow.engine import Engine
from repro.workflow.log import RecordKind, SystemLog
from repro.workflow.spec import workflow


class TestFigure1:
    """The paper's own worked example, end to end."""

    def test_exact_recovery_sets(self, figure1):
        report = figure1.heal_now()
        T = Figure1Scenario.task_ids
        assert T(report.undone) == figure1.EXPECTED_UNDONE
        assert T(report.redone) == figure1.EXPECTED_REDONE
        assert T(report.abandoned) == figure1.EXPECTED_ABANDONED
        assert T(report.new_executions) == figure1.EXPECTED_NEW
        assert T(report.kept) == figure1.EXPECTED_KEPT

    def test_strictly_correct(self, figure1):
        figure1.heal_now()
        assert figure1.audit.ok, figure1.audit.problems

    def test_matches_clean_oracle(self, figure1, figure1_clean):
        figure1.heal_now()
        healed = figure1.store.snapshot()
        oracle = figure1_clean.store.snapshot()
        for name, value in oracle.items():
            assert healed[name] == value, name
        # The only extra healed object is the tombstoned u (created by
        # the abandoned t3).
        extras = set(healed) - set(oracle)
        assert all(healed[n] is TOMBSTONE for n in extras)

    def test_undo_before_redo_in_actions(self, figure1):
        report = figure1.heal_now()
        seq = list(report.actions)
        for uid in set(report.undone) & set(report.redone):
            assert seq.index(Action.undo(uid)) < seq.index(Action.redo(uid))

    def test_redo_records_never_read_dirty_versions(self, figure1):
        """Rule T3.4's semantic audit: no recovery execution observed a
        corrupted version."""
        report = figure1.heal_now()
        dirty = set(report.dirty_versions)
        for record in figure1.log.records(RecordKind.REDO):
            for name, ver in record.reads.items():
                assert (name, ver) not in dirty

    def test_redos_follow_log_precedence(self, figure1):
        """Rule T3.1: among redone instances, redo order = log order."""
        report = figure1.heal_now()
        redo_positions = {
            uid: i for i, uid in enumerate(report.redone)
        }
        seqs = {
            uid: figure1.log.get(uid).seq for uid in report.redone
        }
        ordered = sorted(report.redone, key=seqs.__getitem__)
        assert list(report.redone) == ordered
        assert redo_positions  # non-empty sanity

    def test_undo_records_committed(self, figure1):
        report = figure1.heal_now()
        undo_uids = {
            r.uid for r in figure1.log.records(RecordKind.UNDO)
        }
        assert set(report.undone) == undo_uids

    def test_kept_tasks_have_no_recovery_records(self, figure1):
        report = figure1.heal_now()
        recovery_uids = {
            r.uid
            for r in figure1.log.records()
            if r.kind != RecordKind.NORMAL
        }
        assert not (set(report.kept) & recovery_uids)

    def test_report_counts(self, figure1):
        report = figure1.heal_now()
        assert report.touched == 7 + 5 + 1
        assert len(report.kept) == 2
        assert "7 undone" in report.summary()


class TestNoOpHeal:
    def test_healthy_system_untouched(self, figure1_clean):
        store_before = figure1_clean.store.snapshot()
        healer = Healer(
            figure1_clean.store,
            figure1_clean.log,
            figure1_clean.specs_by_instance,
        )
        report = healer.heal([])
        assert report.undone == () and report.redone == ()
        assert len(report.kept) == len(
            figure1_clean.log.normal_records()
        )
        assert figure1_clean.store.snapshot() == store_before

    def test_alert_about_unlogged_instance_is_noop(self, figure1_clean):
        healer = Healer(
            figure1_clean.store,
            figure1_clean.log,
            figure1_clean.specs_by_instance,
        )
        report = healer.heal(["wf1/ghost#7"])
        assert report.malicious == frozenset()
        assert report.undone == ()


class TestSelfReadingTask:
    """A malicious task that reads the object it writes: its redo must
    see the pre-attack value (Phase A's reason to exist)."""

    def test_accumulator_restored(self):
        spec = (
            workflow("acc")
            .task("bump", reads=["total"], writes=["total"],
                  compute=lambda d: {"total": d["total"] + 10})
            .task("done", reads=["total"], writes=["out"],
                  compute=lambda d: {"out": d["total"] * 2})
            .chain("bump", "done")
            .build()
        )
        store, log = DataStore({"total": 5, "out": 0}), SystemLog()
        engine = Engine(store, log)
        run = engine.new_run(spec, "r")

        from repro.ids.attacks import AttackCampaign

        campaign = AttackCampaign().corrupt_task("bump", total=999)
        engine.run_to_completion(run, tamper=campaign)
        assert store.read("total") == 999

        healer = Healer(store, log, engine.specs_by_instance)
        report = healer.heal(["r/bump#1"])
        assert store.read("total") == 15  # 5 + 10, from the clean value
        assert store.read("out") == 30
        assert set(report.redone) == {"r/bump#1", "r/done#1"}


class TestForgedRuns:
    def test_forged_run_fully_abandoned(self):
        spec = (
            workflow("w")
            .task("a", reads=["x"], writes=["x"],
                  compute=lambda d: {"x": d["x"] + 1})
            .build()
        )
        store, log = DataStore({"x": 0}), SystemLog()
        engine = Engine(store, log)
        engine.run_to_completion(engine.new_run(spec, "legit"))
        engine.run_to_completion(engine.new_run(spec, "evil"))
        assert store.read("x") == 2

        healer = Healer(store, log, engine.specs_by_instance)
        report = healer.heal([], forged_runs=["evil"])
        assert store.read("x") == 1
        assert set(report.abandoned) == {"evil/a#1"}
        assert report.redone == ()
        assert set(report.kept) == {"legit/a#1"}

    def test_object_created_only_by_forged_run_tombstoned(self):
        spec = (
            workflow("w")
            .task("a", reads=[], writes=["loot"],
                  compute=lambda d: {"loot": 1_000_000})
            .build()
        )
        store, log = DataStore(), SystemLog()
        engine = Engine(store, log)
        engine.run_to_completion(engine.new_run(spec, "evil"))
        healer = Healer(store, log, engine.specs_by_instance)
        healer.heal([], forged_runs=["evil"])
        assert store.read("loot") is TOMBSTONE


class TestStaleReadCascade:
    """Theorem 1 condition 3 across workflows: a reader of a redone
    task's output is repaired even when its own workflow is clean."""

    def test_cross_workflow_repair(self):
        producer = (
            workflow("prod")
            .task("make", reads=["seed"], writes=["shared"],
                  compute=lambda d: {"shared": d["seed"] * 10})
            .build()
        )
        consumer = (
            workflow("cons")
            .task("use", reads=["shared"], writes=["result"],
                  compute=lambda d: {"result": d["shared"] + 1})
            .build()
        )
        store = DataStore({"seed": 3, "shared": 0, "result": 0})
        log = SystemLog()
        engine = Engine(store, log)

        from repro.ids.attacks import AttackCampaign

        campaign = AttackCampaign().corrupt_task("make", shared=777)
        engine.run_to_completion(
            engine.new_run(producer, "p"), tamper=campaign
        )
        engine.run_to_completion(engine.new_run(consumer, "c"))
        assert store.read("result") == 778

        healer = Healer(store, log, engine.specs_by_instance)
        report = healer.heal(["p/make#1"])
        assert store.read("shared") == 30
        assert store.read("result") == 31
        assert "c/use#1" in report.redone


class TestErrors:
    def test_missing_spec_rejected(self, figure1):
        healer = Healer(figure1.store, figure1.log, {})
        with pytest.raises(RecoveryError, match="spec"):
            healer.heal([figure1.malicious_uid])

    def test_reader_of_unrecoverable_object_reported(self):
        """An object created only by a forged run, read by a legit
        workflow: the healed history has no value for it, and the heal
        must fail loudly rather than invent one."""
        creator = (
            workflow("creator")
            .task("make", reads=[], writes=["artifact"],
                  compute=lambda d: {"artifact": 99})
            .build()
        )
        reader = (
            workflow("reader")
            .task("use", reads=["artifact"], writes=["derived"],
                  compute=lambda d: {"derived": d["artifact"] + 1})
            .build()
        )
        store, log = DataStore({"derived": 0}), SystemLog()
        engine = Engine(store, log)
        engine.run_to_completion(engine.new_run(creator, "evil"))
        engine.run_to_completion(engine.new_run(reader, "legit"))
        healer = Healer(store, log, engine.specs_by_instance)
        with pytest.raises(RecoveryError,
                           match="created only by undone tasks"):
            healer.heal([], forged_runs=["evil"])
