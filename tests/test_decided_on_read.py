"""A scan's Theorem 1/2 sets are decided when something reads them.

An unobserved scan only pops its alert and queues its unit; the batch
heal derives the batch's closure again, on the epoch's one dependency
index.  An observed scan and a plan verified as it is queued (the fuzz
episode's plan verifier) read the sets at scan time, so they see what an eager analyzer
would have decided then.  A late first read decides the sets against
the grown log: a fresh analyzer's sets over that log, a superset of
the scan-time ones.
"""

import pytest

from repro.core.epochs import EpochManager
from repro.core.undo_redo import find_redo_tasks, find_undo_tasks
from repro.ids.attacks import AttackCampaign
from repro.lint import verify_plan
from repro.obs.events import EventBus, EventRecorder, UnitEmitted
from repro.obs.perf import counter_snapshot
from repro.sim.fullstack import FullStackConfig, ledger_spec, run_replication
from repro.system import SelfHealingSystem
from repro.workflow import dependency
from repro.workflow.data import DataStore
from repro.workflow.dependency import DependencyAnalyzer


def undo_analyses():
    return counter_snapshot().get("undo_analyses", 0)


def new_system(**kwargs):
    initial = {"balance": 100}
    manager = EpochManager(DataStore(initial), initial)
    return manager, SelfHealingSystem(manager, alert_buffer=8,
                                      recovery_buffer=8, **kwargs)


def attack(manager, name):
    """Run one ledger workflow whose ``apply`` is tampered with; returns
    the malicious uid."""
    campaign = AttackCampaign().transform_task(
        "apply", lambda _, o: {k: v + 5000 for k, v in o.items()},
        workflow_instance=name)
    manager.run_workflow_attacked(ledger_spec(name), campaign, name=name)
    return campaign.malicious_uids[0]


def eager(manager, uids):
    """The sets an eager analyzer decides over the log as it is now."""
    index = DependencyAnalyzer(manager.log, manager.specs_by_instance)
    undo = find_undo_tasks(index, uids)
    return undo, find_redo_tasks(index, undo.definite)


def assert_superset(late, early):
    for name in ("malicious", "infected", "control_candidates",
                 "stale_read_candidates"):
        assert getattr(late[0], name) >= getattr(early[0], name), name
    assert late[1].definite >= early[1].definite
    assert late[1].candidates >= early[1].candidates


class TestScanTimeReads:
    def test_sets_read_at_scan_time_equal_the_eager_analyzers(self):
        manager, system = new_system()
        for i in range(4):
            system.submit_alert(attack(manager, f"a{i}"))
            plan = system.scan_step()
            assert (plan.undo_analysis, plan.redo_analysis) == \
                eager(manager, plan.alert_uids)
        assert system.sweep()
        assert manager.audit().ok

    def test_unobserved_scan_decides_nothing(self):
        manager, system = new_system()
        system.submit_alert(attack(manager, "a"))
        before = undo_analyses()
        plan = system.scan_step()
        assert undo_analyses() == before
        # The first read decides the sets; later reads reuse them.
        assert plan.undo_analysis.definite
        assert plan.redo_analysis is plan.redo_analysis
        assert undo_analyses() == before + 1

    def test_observed_scan_decides_at_scan_time(self):
        bus = EventBus()
        claims = []
        bus.subscribe(claims.append, types=[UnitEmitted])
        manager, system = new_system(bus=bus)
        uid = attack(manager, "a")
        system.submit_alert(uid)
        expected = eager(manager, [uid])
        before = undo_analyses()
        plan = system.scan_step()
        assert undo_analyses() == before + 1
        assert (plan.undo_analysis, plan.redo_analysis) == expected
        assert claims[-1].claimed_undo == \
            tuple(sorted(expected[0].definite))
        assert undo_analyses() == before + 1

    def test_verify_decides_at_scan_time(self):
        manager, system = new_system()
        uid = attack(manager, "a")
        system.submit_alert(uid)
        expected = eager(manager, [uid])
        before = undo_analyses()
        plan = system.scan_step()
        assert verify_plan(manager.log, manager.specs_by_instance,
                           plan) == []
        assert undo_analyses() == before + 1
        # More damage commits before the first read by anyone else:
        # the sets are those of the scan.
        attack(manager, "b")
        assert (plan.undo_analysis, plan.redo_analysis) == expected
        assert undo_analyses() == before + 1


class TestLateRead:
    def test_late_read_is_a_fresh_analysis_of_the_grown_log(self):
        manager, system = new_system()
        uid = attack(manager, "a")
        system.submit_alert(uid)
        at_scan = eager(manager, [uid])
        plan = system.scan_step()
        # Later ledger runs read the tampered balance.
        for i in range(3):
            attack(manager, f"later{i}")
        late = (plan.undo_analysis, plan.redo_analysis)
        assert late == eager(manager, [uid])
        assert_superset(late, at_scan)
        assert late[0].definite > at_scan[0].definite

    def test_replace_keeps_the_decided_sets(self):
        from dataclasses import replace

        manager, system = new_system()
        uid = attack(manager, "a")
        system.submit_alert(uid)
        plan = system.scan_step()
        ua = plan.undo_analysis
        mutated = replace(plan, undo_analysis=replace(
            ua, malicious=frozenset(), infected=frozenset()))
        assert not mutated.undo_analysis.definite
        assert mutated.redo_analysis == plan.redo_analysis
        assert plan.undo_analysis is ua
        assert mutated.sets_of is plan.sets_of


class CountedIndexes:
    """Counts the dependency indexes built while it is installed."""

    def __init__(self, monkeypatch):
        self.built = 0
        original = dependency.DependencyAnalyzer.__init__

        def init(index, *args, **kwargs):
            self.built += 1
            original(index, *args, **kwargs)

        monkeypatch.setattr(dependency.DependencyAnalyzer, "__init__", init)


class TestOneClosurePerHeal:
    CONFIG = FullStackConfig(arrival_rate=6.0, alert_buffer=4,
                             recovery_buffer=4)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_unobserved_replication_decides_theorem_1_once_per_heal(
            self, seed):
        before = undo_analyses()
        result = run_replication(self.CONFIG, horizon=20.0, seed=seed)
        assert result.heals > 1
        assert undo_analyses() - before == result.heals
        assert result.all_heals_audited_ok

    @pytest.mark.parametrize("observed", [False, True])
    def test_one_index_per_epoch(self, monkeypatch, observed):
        indexes = CountedIndexes(monkeypatch)
        bus = None
        if observed:
            bus = EventBus()
            EventRecorder().attach(bus)
        result = run_replication(self.CONFIG, horizon=20.0, seed=7, bus=bus)
        # Each heal closes one epoch: its scans and its heal share the
        # epoch's index, and an epoch no scan ran in builds it in the
        # heal.
        assert result.heals > 1
        assert indexes.built == result.heals
