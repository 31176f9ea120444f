"""The resumable Definition 2 audit: equal to a from-scratch replay after
every heal, independent of the healed store, linear in the history, and
leaving no per-run garbage behind.  The epoch roll's incremental
baseline equals a full rebuild after every heal."""

import dataclasses
import gc
import glob
import os

import pytest

import repro.core.epochs as epochs_mod
from repro.core.axioms import (
    HistoryReplay,
    HistoryStep,
    audit_strict_correctness,
)
from repro.core.epochs import EpochManager
from repro.errors import DataStoreError
from repro.ids.attacks import AttackCampaign
from repro.scenarios.fuzz import replay_corpus, run_campaign
from repro.scenarios.generate import generate_campaign
from repro.sim.fullstack import FullStackConfig, run_replication
from repro.workflow.data import TOMBSTONE, DataStore
from repro.workflow.log import SystemLog
from repro.workflow.spec import workflow

CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__),
                                       "corpus", "*.json")))


def accumulator_spec(name, delta, calls=None):
    """One task adding ``delta`` to the shared counter; ``calls`` (a
    one-element list) counts how often its code runs."""

    def compute(d):
        if calls is not None:
            calls[0] += 1
        return {"counter": d["counter"] + delta,
                f"out_{name}": d["counter"] + delta}

    return (
        workflow(name)
        .task("add", reads=["counter"], writes=["counter", f"out_{name}"],
              compute=compute)
        .build()
    )


def fresh_audit(manager):
    """The from-scratch audit of everything ``manager`` healed so far."""
    return audit_strict_correctness(
        manager.specs_by_instance,
        manager._initial_data,
        manager.combined_history,
        manager.store.snapshot(),
    )


def rebuilt_baseline(manager):
    """The next epoch's baseline built from scratch: every object's
    latest version."""
    store = manager.store
    return {name: store.latest(name).number for name in store.names()}


@pytest.fixture
def audited_after_every_heal(monkeypatch):
    """Audit after every ``EpochManager.heal`` (on top of the caller's
    own audits) and compare the report with a from-scratch replay field
    for field, and the rolled baseline with a full rebuild; returns the
    list of compared reports."""
    compared = []
    heal = EpochManager.heal

    def checked_heal(self, *args, **kwargs):
        report = heal(self, *args, **kwargs)
        assert self._baseline == rebuilt_baseline(self)
        incremental = self.audit()
        assert incremental == fresh_audit(self)
        assert incremental.ok == (incremental.problems == [])
        compared.append(incremental)
        return report

    monkeypatch.setattr(EpochManager, "heal", checked_heal)
    return compared


@pytest.fixture
def manager():
    initial = {"counter": 0}
    return EpochManager(DataStore(initial), initial)


def heal_epoch(mgr, k, calls=None):
    """One epoch: a clean and an attacked workflow, then the heal."""
    mgr.run_workflow(accumulator_spec(f"c{k}", 1, calls))
    campaign = AttackCampaign().corrupt_task("add", counter=999)
    mgr.run_workflow(accumulator_spec(f"p{k}", 2, calls))
    mgr.run_workflow_attacked(accumulator_spec(f"a{k}", 3, calls),
                              tamper=campaign)
    mgr.heal(campaign.malicious_uids)


def attacked_epochs(mgr, epochs):
    """Run ``epochs`` more epochs, auditing after each heal."""
    reports = []
    for __ in range(epochs):
        heal_epoch(mgr, mgr.epoch)
        reports.append(mgr.audit())
    return reports


class TestEquivalence:
    @pytest.mark.parametrize("lam", [1.0, 3.0, 8.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fullstack_every_heal(self, audited_after_every_heal, lam,
                                  seed):
        result = run_replication(FullStackConfig(arrival_rate=lam), 30.0,
                                 seed)
        assert result.all_heals_audited_ok
        assert len(audited_after_every_heal) == result.heals > 0
        assert all(r.ok for r in audited_after_every_heal)

    def test_fuzz_corpus_every_heal(self, audited_after_every_heal):
        assert CORPUS
        for path, campaign in replay_corpus(CORPUS):
            assert campaign.ok, (path, campaign.violations)
        assert audited_after_every_heal

    @pytest.mark.parametrize("index", range(8))
    def test_generated_campaigns_every_heal(self, audited_after_every_heal,
                                            index):
        # Every fourth campaign is a fleet campaign: its tenants heal
        # through the same manager.
        outcome = run_campaign(
            generate_campaign(5, index=index, multi_tenant_every=4))
        assert outcome.ok, outcome.violations
        assert audited_after_every_heal

    def test_split_extend_equals_whole(self, manager):
        attacked_epochs(manager, 3)
        history = manager.combined_history
        snapshot = manager.store.snapshot()
        for cut in range(len(history) + 1):
            replay = HistoryReplay(manager.specs_by_instance, {"counter": 0})
            replay.extend(history[:cut])
            replay.extend(history[cut:])
            assert replay.steps == len(history)
            assert replay.judge(snapshot) == fresh_audit(manager)


class TestIndependence:
    def test_corruption_after_later_epoch_fails_next_audit(self, manager):
        attacked_epochs(manager, 3)
        assert manager.epoch >= 2
        good = manager.store.read("counter")
        manager.store.write("counter", good + 1, writer="intruder")
        report = manager.audit()
        assert not report.ok
        assert report == fresh_audit(manager)
        assert any("'counter'" in p for p in report.problems)
        # Nothing changed since: the mismatch stays reported.
        assert manager.audit() == report
        # Object problems are judged afresh: repairing the value clears
        # them.
        manager.store.write("counter", good, writer="admin")
        assert manager.audit().ok

    @pytest.mark.parametrize("target, value", [
        ("out_c0", 12345),      # last written two epochs ago
        ("out_p2", TOMBSTONE),  # removed behind recovery's back
    ])
    def test_direct_write_matches_fresh_audit_until_repaired(
            self, manager, target, value):
        attacked_epochs(manager, 3)
        good = manager.store.read(target)
        manager.store.write(target, value, writer="intruder")
        report = manager.audit()
        assert not report.ok
        assert report == fresh_audit(manager)
        assert len(report.problems) == 1 and repr(target) in \
            report.problems[0]
        # Nothing changed since: the mismatch stays reported.
        assert manager.audit() == report
        manager.store.write(target, good, writer="admin")
        assert manager.audit().ok

    def test_direct_write_mid_epoch_is_judged_and_healed(self, manager):
        attacked_epochs(manager, 2)
        manager.run_workflow(accumulator_spec("late", 1))
        manager.store.write("out_c0", TOMBSTONE, writer="intruder")
        mid = manager.audit()
        # The unhealed workflow's writes and the tombstone both show.
        assert mid == fresh_audit(manager)
        assert len(mid.problems) == 3
        assert manager.audit() == mid
        manager.heal([])
        # The heal's reconcile restores the baseline value of the
        # untouched object and the workflow joins the healed history.
        assert manager.store.read("out_c0") != TOMBSTONE
        after = manager.audit()
        assert after.ok and after == fresh_audit(manager)

    def test_replayed_write_the_store_never_saw_is_judged(self, manager,
                                                            monkeypatch):
        attacked_epochs(manager, 2)
        # A registered instance the healer claims it settled but never
        # ran: the replay writes ``out_ghost``, the store has no such
        # object and its write journal never names it.
        manager.new_run(accumulator_spec("ghost", 5), name="ghost")
        heal = epochs_mod.Healer.heal

        def claiming_heal(self, *args, **kwargs):
            report = heal(self, *args, **kwargs)
            return dataclasses.replace(
                report, final_history=report.final_history
                + (HistoryStep("ghost", "add", 1),))

        monkeypatch.setattr(epochs_mod.Healer, "heal", claiming_heal)
        manager.heal([])
        report = manager.audit()
        assert report == fresh_audit(manager)
        assert "object 'out_ghost' missing from healed store" in \
            report.problems

    def test_step_problem_persists_in_later_reports(self, manager,
                                                    monkeypatch):
        attacked_epochs(manager, 2)
        ghost = HistoryStep("ghost", "add", 1)
        heal = epochs_mod.Healer.heal

        def faulty_heal(self, *args, **kwargs):
            report = heal(self, *args, **kwargs)
            return dataclasses.replace(
                report, final_history=report.final_history + (ghost,))

        monkeypatch.setattr(epochs_mod.Healer, "heal", faulty_heal)
        first = attacked_epochs(manager, 1)[0]
        monkeypatch.setattr(epochs_mod.Healer, "heal", heal)
        later = attacked_epochs(manager, 3)
        problem = f"{ghost.uid}: no spec registered for 'ghost'"
        for report in [first] + later:
            assert not report.ok
            assert problem in report.problems
        assert later[-1] == fresh_audit(manager)

    def test_unknown_object_raises(self):
        spec = (
            workflow("w")
            .task("t", reads=["missing"], writes=["y"],
                  compute=lambda d: {"y": 1})
            .build()
        )
        replay = HistoryReplay({"w": spec}, {})
        with pytest.raises(DataStoreError):
            replay.extend([HistoryStep("w", "t", 1)])
        assert replay.steps == 0
        with pytest.raises(DataStoreError):
            audit_strict_correctness({"w": spec}, {},
                                     [HistoryStep("w", "t", 1)], {})


class TestLinearWork:
    def test_each_step_replayed_once(self, manager):
        calls = [0]
        replayed = 0
        for k in range(6):
            heal_epoch(manager, k, calls)
            before = calls[0]
            assert manager.audit().ok
            assert manager.audit().ok  # a repeated audit replays nothing
            replayed += calls[0] - before
        assert replayed == len(manager.combined_history) > 0


def test_replication_leaves_no_cyclic_garbage():
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_replication(FullStackConfig(arrival_rate=1.0), 30.0, seed=3)
        gc.collect()
        leaked = [o for o in gc.garbage
                  if isinstance(o, (SystemLog, EpochManager))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []
