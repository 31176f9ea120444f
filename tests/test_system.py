"""Tests for the SelfHealingSystem architecture glue (Figure 2)."""

import pytest

from repro.core.strategies import RecoveryStrategy
from repro.ids.alerts import Alert
from repro.obs.events import (
    AlertLost,
    EventBus,
    EventRecorder,
    HealStarted,
    NormalTaskRefused,
    UnitEmitted,
)
from repro.obs.monitor import ConformanceMonitor
from repro.obs.tracing import ManualClock
from repro.scenarios.figure1 import build_figure1
from repro.system import SelfHealingSystem, SystemState


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
        unit = system.scan_step()
        assert unit == (sc.malicious_uid,)
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
        (report,) = system.sweep()
        assert system.state is SystemState.NORMAL
        # The Figure 1 damage was actually repaired.
        assert len(report.undone) == 7 and len(report.redone) == 5


class TestAlertChannelFaults:
    """Duplicated, late and missed alerts, and false alarms, heal clean:
    the imperfect IDS of Section IV-D changes the alert stream, not the
    healed state (Definition 2)."""

    #: Innocent committed tasks of Figure 1 (kept by the single heal).
    INNOCENT = ("wf2/t7#1", "wf2/t9#1")

    @staticmethod
    def heal(alerts, alert_buffer=15):
        """Heal ``alerts`` (``None`` = the malicious uid) on a fresh
        attacked Figure 1 under a conformance monitor. Alerts lost to a
        full queue are the system's administrator reports, folded into
        the batch."""
        sc = build_figure1(attacked=True)
        bus, clock = EventBus(), ManualClock(0.0)
        monitor = ConformanceMonitor().attach(bus)
        system = SelfHealingSystem(sc.manager, alert_buffer=alert_buffer,
                                   bus=bus, clock=clock)
        lost = []
        for uid in alerts:
            clock.advance(0.5)
            uid = uid or sc.malicious_uid
            if not system.submit_alert(Alert(clock.now, uid)):
                lost.append(uid)
        clock.advance(0.5)
        while system.alerts_queued:
            assert system.scan_step() is not None, "analyzer blocked"
        report = system.recovery_step()
        sc.record_heal(report)
        monitor.finalize(clock.now)
        return sc, report, monitor, lost

    @pytest.mark.parametrize("alerts, alert_buffer, missed", [
        ([None, None], 15, 0),
        ([INNOCENT[0], None], 15, 0),
        ([INNOCENT[0], None, INNOCENT[1]], 15, 0),
        ([INNOCENT[0], None], 1, 1),
    ], ids=["duplicated", "late-after-false-alarm",
            "false-alarms-both-sides", "missed-reported-by-administrator"])
    def test_heals_clean_to_the_single_alert_store(self, alerts,
                                                   alert_buffer, missed):
        single = self.heal([None])[0]
        sc, report, monitor, lost = self.heal(alerts, alert_buffer)
        assert len(lost) == missed
        assert sc.audit.ok, sc.audit.problems
        assert monitor.events_seen and monitor.violations == []
        assert sc.store.snapshot() == single.store.snapshot()
        false_alarms = {uid for uid in alerts if uid is not None}
        assert false_alarms <= set(report.redone)


class TestQueueLimits:
    def test_alert_queue_overflow_loses_alerts(self):
        sc, system = make_system(alert_buffer=2)
        assert system.submit_alert("wf1/t1#1")
        assert system.submit_alert("wf1/t2#1")
        assert not system.submit_alert("wf1/t3#1")
        assert system.alerts_lost == 1
        assert system.alerts_queued == 2

    def test_lost_alert_publishes_one_alert_lost(self):
        bus = EventBus()
        recorder = EventRecorder().attach(bus)
        sc, system = make_system(alert_buffer=2, bus=bus,
                                 clock=ManualClock(4.0))
        system.submit_alert("wf1/t1#1")
        system.submit_alert("wf1/t2#1")
        before = len(recorder.events)
        assert not system.submit_alert("wf1/t3#1")
        assert recorder.events[before:] == [
            AlertLost(4.0, uid="wf1/t3#1", queue_depth=2)]

    def test_scan_publishes_one_unit_emitted(self):
        bus = EventBus()
        recorder = EventRecorder().attach(bus)
        sc, system = make_system(bus=bus, clock=ManualClock(1.5))
        system.submit_alert(sc.malicious_uid)
        before = len(recorder.events)
        system.scan_step()
        scan = recorder.events[before:]
        assert scan[0] == UnitEmitted(1.5, queue_depth=1,
                                      uid=sc.malicious_uid)
        # the rest is the SCAN -> RECOVERY transition
        assert [e.kind for e in scan[1:]] == ["StateTransition"]

    def test_scan_blocked_by_full_recovery_queue(self):
        sc, system = make_system(recovery_buffer=1)
        system.submit_alert("wf1/t1#1")
        system.submit_alert("wf1/t2#1")
        assert system.scan_step() is not None   # fills the single slot
        assert system.scan_step() is None       # analyzer blocked
        assert system.state is SystemState.SCAN
        assert system.recovery_units_queued == 1


class TestOneRule:
    """The scheduler drains every queued unit when no alert waits or the
    analyzer is blocked; the drained units commit as one batch heal with
    the administrator backlog once the alert queue is empty."""

    FALSE_ALARMS = TestAlertChannelFaults.INNOCENT

    def observed(self, **kwargs):
        bus, started = EventBus(), []
        bus.subscribe(started.append, types=[HealStarted])
        sc, system = make_system(bus=bus, clock=lambda: 0.0, **kwargs)
        return sc, system, started, bus

    def test_blocked_step_drains_then_one_commit_heals_all(self):
        sc, system, started, _bus = self.observed(alert_buffer=2,
                                                  recovery_buffer=1)
        first, second = self.FALSE_ALARMS
        assert system.submit_alert(first)
        assert system.submit_alert(sc.malicious_uid)
        assert not system.submit_alert(second)      # lost: admin report
        assert system.scan_step() is not None
        assert system.scan_step() is None           # analyzer blocked
        assert system.recovery_due
        assert system.recovery_step() is None       # drained, no heal
        assert (system.recovery_units_queued, system.alerts_queued) == (0, 1)
        assert started == [] and sc.manager.epoch == 0
        assert system.scan_step() is not None
        assert system.recovery_due
        report = system.recovery_step()
        assert report is not None
        assert [e.malicious for e in started] == [
            (first, sc.malicious_uid, second)]
        assert sc.manager.epoch == 1 and sc.manager.audit().ok
        assert set(self.FALSE_ALARMS) <= set(report.redone)
        assert system.sweep() == []

    def test_no_drain_while_an_alert_can_be_scanned(self):
        sc, system, _started, _bus = self.observed()
        system.submit_alert(sc.malicious_uid)
        system.scan_step()
        system.submit_alert(self.FALSE_ALARMS[0])
        assert not system.recovery_due
        system.scan_step()
        assert system.recovery_due

    def test_sweep_heals_once_then_rolls_normal_records(self):
        sc, system, started, _bus = self.observed(recovery_buffer=1)
        for uid in (sc.malicious_uid, *self.FALSE_ALARMS):
            assert system.submit_alert(uid)
        (report,) = system.sweep()
        assert [e.malicious for e in started] == [
            (sc.malicious_uid, *self.FALSE_ALARMS)]
        assert system.state is SystemState.NORMAL
        # Later commits with no alert: the sweep rolls them into the
        # audited history with a heal of nothing.
        sc.manager.run_workflow(_chain_spec(), "after")
        (roll,) = system.sweep()
        assert started[-1].malicious == ()
        assert roll.undone == () and sc.manager.epoch == 2
        assert not sc.manager.log.normal_records()


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
        system.sweep()
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
        """No alert, no backlog: the sweep heals nothing and rolls the
        epoch's normal records into the audited history."""
        sc, system = make_system()
        (roll,) = system.sweep()
        assert roll.undone == () and roll.redone == ()
        assert sc.manager.epoch == 1 and not sc.manager.log.normal_records()
        assert system.sweep() == []
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
            assert system.sweep()
            assert system.state is SystemState.NORMAL
        assert manager.epoch == 3
        assert manager.audit().ok
        assert manager.store.read("z") == 4  # healed: (1 + 1) * 2

    def test_verify_mode_checks_plans_against_current_epoch(self):
        from repro.ids.attacks import AttackCampaign
        from repro.lint import verify_heal

        manager, system = self.make_managed()
        spec = _chain_spec()
        for wave in range(2):
            campaign = AttackCampaign()
            campaign.corrupt_task("a", workflow_instance=f"n{wave}",
                                  y=777)
            manager.run_workflow_attacked(spec, campaign, f"n{wave}")
            system.submit_alert(campaign.malicious_uids[0])
            system.scan_step()
            log = manager.log
            reports = system.sweep()
            assert reports
            for report in reports:
                # Each heal decided on the epoch it healed.
                assert verify_heal(log, manager.specs_by_instance,
                                   report) == []
        assert manager.epoch == 2
        assert manager.audit().ok
