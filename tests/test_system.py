"""Tests for the SelfHealingSystem architecture glue (Figure 2)."""

import pytest

from repro.core.strategies import RecoveryStrategy
from repro.obs.events import EventBus, NormalTaskRefused
from repro.scenarios.figure1 import build_figure1
from repro.system import SelfHealingSystem, SystemState

from tests.conftest import quiesce


def make_system(**kwargs):
    sc = build_figure1(attacked=True)
    system = SelfHealingSystem(sc.manager, **kwargs)
    return sc, system


class TestStates:
    def test_starts_normal(self):
        __, system = make_system()
        assert system.state is SystemState.NORMAL
        assert system.normal_task_admissible()

    def test_alert_moves_to_scan(self):
        sc, system = make_system()
        assert system.submit_alert(sc.malicious_uid)
        assert system.state is SystemState.SCAN
        assert not system.normal_task_admissible()

    def test_scan_moves_to_recovery(self):
        sc, system = make_system()
        system.submit_alert(sc.malicious_uid)
        plan = system.scan_step()
        assert plan is not None and plan.units == 1
        assert system.state is SystemState.RECOVERY
        assert not system.normal_task_admissible()

    def test_recovery_returns_to_normal(self):
        sc, system = make_system()
        system.submit_alert(sc.malicious_uid)
        system.scan_step()
        report = system.recovery_step()
        assert report is not None
        assert system.state is SystemState.NORMAL

    def test_run_to_quiescence_heals(self):
        sc, system = make_system()
        system.submit_alert(sc.malicious_uid)
        report = quiesce(system)
        assert system.state is SystemState.NORMAL
        # The Figure 1 damage was actually repaired.
        assert len(report.undone) == 7 and len(report.redone) == 5


class TestQueueLimits:
    def test_alert_queue_overflow_loses_alerts(self):
        sc, system = make_system(alert_buffer=2)
        assert system.submit_alert("wf1/t1#1")
        assert system.submit_alert("wf1/t2#1")
        assert not system.submit_alert("wf1/t3#1")
        assert system.alerts_lost == 1
        assert system.alerts_queued == 2

    def test_scan_blocked_by_full_recovery_queue(self):
        sc, system = make_system(recovery_buffer=1)
        system.submit_alert("wf1/t1#1")
        system.submit_alert("wf1/t2#1")
        assert system.scan_step() is not None   # fills the single slot
        assert system.scan_step() is None       # analyzer blocked
        assert system.state is SystemState.SCAN
        assert system.recovery_units_queued == 1


class TestStrictGate:
    def test_refused_in_scan_and_recovery(self):
        """Strict correctness (Theorem 4): no normal task runs while an
        alert is unanalysed or a repair is queued, and each refusal is
        published with the state that caused it."""
        bus = EventBus()
        refused = []
        bus.subscribe(refused.append, types=(NormalTaskRefused,))
        sc, system = make_system(bus=bus, clock=lambda: 0.0)
        assert system.normal_task_admissible()
        system.submit_alert(sc.malicious_uid)
        assert not system.normal_task_admissible()
        system.scan_step()
        assert system.state is SystemState.RECOVERY
        assert not system.normal_task_admissible()
        quiesce(system)
        assert system.normal_task_admissible()
        assert [e.state for e in refused] == ["SCAN", "RECOVERY"]


class TestStrategies:
    def test_strategy_properties(self):
        strict = RecoveryStrategy.STRICT
        assert strict.recovery_guaranteed_terminating
        assert strict.recovery_stays_correct

        risky = RecoveryStrategy.RISK_ALL
        assert not risky.recovery_guaranteed_terminating
        assert not risky.recovery_stays_correct

        mv = RecoveryStrategy.RISK_NORMAL_ONLY
        assert mv.recovery_guaranteed_terminating
        assert mv.recovery_stays_correct


class TestNoAlerts:
    def test_recovery_step_outside_recovery_is_none(self):
        __, system = make_system()
        assert system.recovery_step() is None

    def test_scan_step_with_empty_queue_is_none(self):
        __, system = make_system()
        assert system.scan_step() is None

    def test_quiescence_trivial_when_normal(self):
        __, system = make_system()
        assert quiesce(system) is None
        assert system.state is SystemState.NORMAL


def _chain_spec():
    from repro.workflow.spec import workflow

    return (
        workflow("w")
        .task("a", reads=["x"], writes=["y"],
              compute=lambda d: {"y": d["x"] + 1})
        .task("b", reads=["y"], writes=["z"],
              compute=lambda d: {"z": d["y"] * 2})
        .chain("a", "b")
        .build()
    )


class TestManagerMode:
    def make_managed(self, **kwargs):
        from repro.core.epochs import EpochManager
        from repro.workflow.data import DataStore

        initial = {"x": 1}
        manager = EpochManager(DataStore(initial), initial)
        return manager, SelfHealingSystem(manager=manager, **kwargs)

    def test_world_required_without_manager(self):
        with pytest.raises(TypeError):
            SelfHealingSystem()

    def test_heals_roll_epochs_across_attack_waves(self):
        from repro.ids.attacks import AttackCampaign

        manager, system = self.make_managed()
        spec = _chain_spec()
        for wave in range(3):
            campaign = AttackCampaign()
            campaign.corrupt_task("a", workflow_instance=f"v{wave}",
                                  y=999)
            manager.run_workflow_attacked(spec, campaign, f"v{wave}")
            assert system.submit_alert(campaign.malicious_uids[0])
            assert quiesce(system) is not None
            assert system.state is SystemState.NORMAL
        assert manager.epoch == 3
        assert manager.audit().ok
        assert manager.store.read("z") == 4  # healed: (1 + 1) * 2

    def test_verify_mode_checks_plans_against_current_epoch(self):
        from repro.ids.attacks import AttackCampaign

        manager, system = self.make_managed(verify=True)
        spec = _chain_spec()
        for wave in range(2):
            campaign = AttackCampaign()
            campaign.corrupt_task("a", workflow_instance=f"n{wave}",
                                  y=777)
            manager.run_workflow_attacked(spec, campaign, f"n{wave}")
            system.submit_alert(campaign.malicious_uids[0])
            quiesce(system)
        assert manager.epoch == 2
        assert manager.audit().ok
