"""The batch heal decides Theorems 1–2; a scan decides nothing.

A scan only queues its unit (its alert's uid).  The heal builds one
dependency index of its epoch's log, decides the merged batch's sets
once on it, and on an active bus publishes those decisions inside its
``HealStarted`` bracket, ahead of its order's edges and its first
undo.  So the provenance a flight log holds is that of the recovery
that ran.
"""

import pytest

from repro.core.epochs import EpochManager
from repro.ids.attacks import AttackCampaign
from repro.obs.events import (
    EventBus,
    EventRecorder,
    HealFinished,
    HealStarted,
    OrderConstraint,
    RedoDecision,
    TaskUndone,
    UndoDecision,
)
from repro.obs.perf import counter_snapshot
from repro.obs.provenance import explain
from repro.obs.recorder import read_flight_log
from repro.scenarios.fuzz import _run_single_episode
from repro.scenarios.generate import generate_campaign
from repro.sim.fullstack import FullStackConfig, ledger_spec, run_replication
from repro.system import SelfHealingSystem
from repro.workflow import dependency
from repro.workflow.data import DataStore

DECISIONS = (UndoDecision, RedoDecision)


def undo_analyses():
    return counter_snapshot().get("undo_analyses", 0)


def index_builds():
    return counter_snapshot().get("closure_recomputations", 0)


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


def observed_bus():
    bus = EventBus()
    return bus, EventRecorder().attach(bus)


class TestScanTimeReads:
    def test_unobserved_scan_decides_nothing(self):
        manager, system = new_system()
        uid = attack(manager, "a")
        system.submit_alert(uid)
        before = undo_analyses()
        assert system.scan_step() == (uid,)
        assert undo_analyses() == before
        report = system.recovery_step()
        assert undo_analyses() == before + 1
        assert uid in report.undo_analysis.definite
        assert report.redo_analysis is None and report.order is None

    def test_observed_scan_decides_nothing(self):
        bus, recorder = observed_bus()
        manager, system = new_system(bus=bus)
        for name in ("a", "b"):
            system.submit_alert(attack(manager, name))
        before = undo_analyses()
        system.scan_step()
        system.scan_step()
        assert undo_analyses() == before
        assert not any(isinstance(e, DECISIONS) for e in recorder.events)
        report = system.recovery_step()
        assert undo_analyses() == before + 1
        assert report.redo_analysis is not None


class TestHealPublishesItsDecisions:
    def test_decisions_lead_the_heal_bracket(self):
        bus, recorder = observed_bus()
        manager, system = new_system(bus=bus)
        for name in ("a", "b", "c"):
            system.submit_alert(attack(manager, name))
        (report,) = system.sweep()
        events = recorder.events
        start = next(i for i, e in enumerate(events)
                     if isinstance(e, HealStarted))
        first_undo = next(i for i, e in enumerate(events)
                          if isinstance(e, TaskUndone))
        finish = next(i for i, e in enumerate(events)
                      if isinstance(e, HealFinished))
        decided = [i for i, e in enumerate(events)
                   if isinstance(e, DECISIONS)]
        edges = [i for i, e in enumerate(events)
                 if isinstance(e, OrderConstraint)]
        # Theorem 1/2 decisions, then the order's edges, then the undos.
        assert start < min(decided) and max(decided) < min(edges)
        assert max(edges) < first_undo < finish
        definite = {e.uid for e in events if isinstance(e, UndoDecision)
                    and e.condition in ("T1.1", "T1.3")}
        assert definite == report.undo_analysis.definite
        assert definite <= set(report.undone)
        assert manager.audit().ok

    def test_explain_shows_only_the_heals_decisions(self):
        # A scan of s1w0_t3 alone would decide it a definite (T2.1)
        # redo; the batch also heals s1w0_t1, which controls t3, so the
        # heal decides it a T2.2 candidate and abandons it.
        episode = _run_single_episode(generate_campaign(0, index=3))
        assert episode.violations == []
        flight = read_flight_log(episode.flight_text)
        text = explain(flight, "s1w0.run/s1w0_t3#1")
        assert "redo[T2.1]" not in text
        lines = text.splitlines()
        assert [line.split(":")[0].strip() for line in lines
                if line.lstrip().startswith(("undo[", "redo["))] == [
            "undo[T1.1]", "undo[T1.2]", "undo[T1.4]", "redo[T2.2]"]
        assert lines[-1] == "  executed: undone (abandoned)"


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

    @pytest.mark.parametrize("observed", [False, True])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_replication_decides_theorem_1_once_per_heal(
            self, seed, observed):
        bus = observed_bus()[0] if observed else None
        before = undo_analyses()
        result = run_replication(self.CONFIG, horizon=20.0, seed=seed,
                                 bus=bus)
        assert result.heals > 1
        assert undo_analyses() - before == result.heals
        assert result.all_heals_audited_ok

    @pytest.mark.parametrize("observed", [False, True])
    def test_one_index_per_heal(self, monkeypatch, observed):
        indexes = CountedIndexes(monkeypatch)
        bus = observed_bus()[0] if observed else None
        before = index_builds()
        result = run_replication(self.CONFIG, horizon=20.0, seed=7, bus=bus)
        # Each heal builds the one index it decides on, and counts it.
        assert result.heals > 1
        assert indexes.built == result.heals
        assert index_builds() - before == result.heals

    def test_a_heal_without_scans_counts_its_build(self, monkeypatch):
        indexes = CountedIndexes(monkeypatch)
        manager, system = new_system()
        before = index_builds()
        system.submit_alert(attack(manager, "a"))
        assert len(system.sweep()) == 1
        # An epoch with normal records and no alert (a fuzz stage whose
        # attack never ran): the sweep rolls it with a heal no scan
        # preceded, which still builds, and counts, one index.
        manager.run_workflow(ledger_spec("b"), name="b")
        (report,) = system.sweep()
        assert not report.undone and manager.epoch == 2
        assert indexes.built == 2
        assert index_builds() - before == 2
