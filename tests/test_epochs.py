"""Tests for multi-epoch operation: healing sequential attack waves."""

import pytest

from repro.core.epochs import EpochManager
from repro.errors import RecoveryError
from repro.ids.attacks import AttackCampaign
from repro.workflow.data import DataStore
from repro.workflow.spec import workflow


def accumulator_spec(name: str, delta: int):
    """One task adding ``delta`` to the shared counter and logging its
    own output object."""
    return (
        workflow(name)
        .task("add", reads=["counter"], writes=["counter", f"out_{name}"],
              compute=lambda d: {
                  "counter": d["counter"] + delta,
                  f"out_{name}": d["counter"] + delta,
              })
        .build()
    )


@pytest.fixture
def manager():
    initial = {"counter": 0}
    store = DataStore(initial)
    return EpochManager(store, initial), initial


class TestSingleEpoch:
    def test_clean_epoch_heals_trivially(self, manager):
        mgr, __ = manager
        mgr.run_workflow(accumulator_spec("a", 5))
        report = mgr.heal([])
        assert report.undone == ()
        assert mgr.epoch == 1
        assert mgr.store.read("counter") == 5
        assert mgr.audit().ok

    def test_attacked_epoch_repaired(self, manager):
        mgr, __ = manager
        campaign = AttackCampaign().corrupt_task("add", counter=999)
        name = mgr.run_workflow_attacked(
            accumulator_spec("a", 5), tamper=campaign
        )
        assert mgr.store.read("counter") == 999
        report = mgr.heal(campaign.malicious_uids)
        assert mgr.store.read("counter") == 5
        assert f"{name}/add#1" in report.redone
        assert mgr.audit().ok


class TestMultipleEpochs:
    def test_second_wave_measured_against_healed_baseline(self, manager):
        """Epoch 1: attack +5 task (forged to 999), heal → counter 5.
        Epoch 2: run +7 (counter 12), attack another +1 task, heal.
        The final state must reflect all three legitimate additions."""
        mgr, __ = manager
        wave1 = AttackCampaign().corrupt_task(
            "add", workflow_instance="w1", counter=999
        )
        mgr.run_workflow_attacked(accumulator_spec("a", 5), wave1, name="w1")
        mgr.heal(wave1.malicious_uids)
        assert mgr.store.read("counter") == 5

        mgr.run_workflow(accumulator_spec("b", 7), name="w2")
        wave2 = AttackCampaign().corrupt_task(
            "add", workflow_instance="w3", counter=-1
        )
        mgr.run_workflow_attacked(accumulator_spec("c", 1), wave2, name="w3")
        assert mgr.store.read("counter") == -1
        report = mgr.heal(wave2.malicious_uids)
        assert mgr.store.read("counter") == 13  # 5 + 7 + 1
        assert mgr.epoch == 2
        assert mgr.audit().ok, mgr.audit().problems

    def test_epoch_two_does_not_disturb_epoch_one_work(self, manager):
        mgr, __ = manager
        mgr.run_workflow(accumulator_spec("a", 5), name="w1")
        mgr.heal([])
        wave = AttackCampaign().corrupt_task(
            "add", workflow_instance="w2", counter=123
        )
        mgr.run_workflow_attacked(accumulator_spec("b", 7), wave, name="w2")
        report = mgr.heal(wave.malicious_uids)
        # Only the epoch-2 instance was touched.
        assert all(u.startswith("w2/") for u in report.undone)
        assert mgr.store.read("out_a") == 5
        assert mgr.store.read("counter") == 12

    def test_alert_about_rolled_epoch_ignored(self, manager):
        mgr, __ = manager
        mgr.run_workflow(accumulator_spec("a", 5), name="w1")
        mgr.heal([])
        mgr.run_workflow(accumulator_spec("b", 7), name="w2")
        report = mgr.heal(["w1/add#1"])  # w1 lives in an archived epoch
        assert report.undone == ()
        assert mgr.store.read("counter") == 12

    def test_each_heal_opens_a_fresh_log(self, manager):
        mgr, __ = manager
        retired = []
        for name in ("a", "b"):
            mgr.run_workflow(accumulator_spec(name, 1))
            retired.append(mgr.log)
            mgr.heal([])
        assert mgr.epoch == 2
        assert all(len(log) == 1 for log in retired)
        assert len({id(log) for log in [*retired, mgr.log]}) == 3
        assert len(mgr.log) == 0  # fresh epoch

    def test_duplicate_instance_names_rejected(self, manager):
        mgr, __ = manager
        mgr.run_workflow(accumulator_spec("a", 1), name="same")
        mgr.heal([])
        with pytest.raises(RecoveryError, match="unique"):
            mgr.run_workflow(accumulator_spec("b", 1), name="same")

    def test_combined_history_grows(self, manager):
        mgr, __ = manager
        mgr.run_workflow(accumulator_spec("a", 1))
        mgr.heal([])
        n1 = len(mgr.combined_history)
        mgr.run_workflow(accumulator_spec("b", 1))
        mgr.heal([])
        assert len(mgr.combined_history) > n1


class TestBranchAcrossEpochs:
    def test_branch_redecision_in_second_epoch(self, manager):
        """An epoch-2 branch depends on data healed in epoch 1."""
        mgr, __ = manager
        # Epoch 1: attacker forges counter to 100.
        wave1 = AttackCampaign().corrupt_task(
            "add", workflow_instance="w1", counter=100
        )
        mgr.run_workflow_attacked(accumulator_spec("a", 5), wave1, name="w1")
        mgr.heal(wave1.malicious_uids)  # counter back to 5

        gate = (
            workflow("gate")
            .task("check", reads=["counter"], writes=["mode"],
                  compute=lambda d: {
                      "mode": 1 if d["counter"] >= 10 else 0
                  },
                  choose=lambda d: "high" if d["mode"] else "low")
            .task("high", reads=[], writes=["result"],
                  compute=lambda d: {"result": "high"})
            .task("low", reads=[], writes=["result"],
                  compute=lambda d: {"result": "low"})
            .edge("check", "high").edge("check", "low")
            .build()
        )
        # Epoch 2: attacker inflates the counter read by the gate.
        wave2 = AttackCampaign().corrupt_task(
            "add", workflow_instance="w2", counter=50
        )
        mgr.run_workflow_attacked(accumulator_spec("b", 2), wave2,
                                  name="w2")
        mgr.run_workflow(gate, name="w3")
        assert mgr.store.read("result") == "high"  # corrupted decision
        mgr.heal(wave2.malicious_uids)
        assert mgr.store.read("counter") == 7
        assert mgr.store.read("result") == "low"  # healed decision
        assert mgr.audit().ok, mgr.audit().problems
