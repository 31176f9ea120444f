"""Integration tests for observed runs.

``record_incident`` drives the paper's Figure 1 attack through the
Figure 2 architecture into a flight recorder; the assertions here pin
the headline quantities the ``repro obs`` report prints — per-state
dwell times, queue high-water marks, loss counts, and the incident
span tree — against the scenario's known ground truth.  Like the
report, they read everything from a replay of the recorded log.  The
simulators are observed the same way: their ordinary
``run_replication`` with a flight recorder on the bus.
"""

from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.obs.events import (
    AlertEnqueued,
    EventBus,
    HealFinished,
    HealStarted,
    StateTransition,
    TaskRedone,
    TaskUndone,
    UnitEmitted,
)
from repro.obs.monitor import replay_conformance
from repro.obs.provenance import build_span_tree, replay
from repro.obs.recorder import (
    FlightRecorder,
    load_flight_log,
    read_flight_log,
)
from repro.obs.runner import record_incident
from repro.obs.tracing import render_span_tree
from repro.scenarios.figure1 import build_figure1

SCAN_TIME = 1.0 / 15.0
TASK_TIME = 1.0 / 20.0


def observe_figure1(false_alarms=2, **kwargs):
    """A recorded Figure 1 incident: the replayed ``metrics``, the
    logged ``events``, the ``spans`` tree, the heal ``result`` and its
    Definition 2 ``audit``."""
    sc = build_figure1()
    flight = FlightRecorder(label="figure1")
    report = record_incident(sc, flight, false_alarms=false_alarms,
                             **kwargs)
    flight.close()
    log = read_flight_log(flight.text())
    return SimpleNamespace(metrics=replay(log).metrics, events=log.events,
                           spans=build_span_tree(log), result=report,
                           audit=sc.record_heal(report))


def observe(run_replication, model, horizon, seed):
    """``run_replication`` recorded on a bus; returns the replayed
    ``(metrics, events, result)``."""
    bus = EventBus()
    flight = FlightRecorder().attach(bus)
    flight.mark("start", 0.0, state="NORMAL")
    result = run_replication(model, horizon, seed, bus=bus)
    flight.mark("finalize", horizon)
    log = read_flight_log(flight.text())
    return replay(log).metrics, log.events, result


@pytest.fixture(scope="module")
def fig1():
    return observe_figure1()


class TestFigure1Observed:
    def test_heal_matches_paper_ground_truth(self, fig1):
        report = fig1.result
        short = lambda uids: {u.split("/")[1].split("#")[0] for u in uids}
        assert short(report.undone) == {"t1", "t2", "t3", "t4", "t6",
                                        "t8", "t10"}
        assert short(report.redone) == {"t1", "t2", "t6", "t8", "t10"}
        assert short(report.abandoned) == {"t3", "t4"}

    def test_counters(self, fig1):
        m = fig1.metrics
        assert m.alerts_enqueued.value == 3  # genuine + 2 false alarms
        assert m.alerts_lost.value == 0
        assert m.loss_fraction == 0.0
        assert m.scan_steps.value == 3
        assert m.heals.value == 1
        assert m.tasks_undone.value == 7
        assert m.tasks_redone.value == 6  # 5 redone + 1 new execution
        assert m.undo_size.mean == pytest.approx(7.0)
        assert m.redo_size.mean == pytest.approx(6.0)
        # strict gate probed once while damage was known
        assert m.normal_refused.value == 1

    def test_queue_high_water_marks(self, fig1):
        m = fig1.metrics
        assert m.alert_depth.high_water == 3
        assert m.recovery_depth.high_water == 3
        # both queues fully drained by the end of the incident
        assert m.alert_depth.value == 0
        assert m.recovery_depth.value == 0

    def test_dwell_times_in_sim_time(self, fig1):
        m = fig1.metrics
        assert m.dwell_states() == ["NORMAL", "RECOVERY", "SCAN"]
        # two 0.05 inter-arrival gaps while detecting, then three scans
        # at scan_time * (1 + outstanding) with outstanding = 0, 1, 2.
        assert m.time_in_state("SCAN") == pytest.approx(
            2 * 0.05 + 6 * SCAN_TIME)
        # 7 undos + 6 redos at TASK_TIME each
        assert m.time_in_state("RECOVERY") == pytest.approx(13 * TASK_TIME)
        occ = m.occupancy()
        assert sum(occ.values()) == pytest.approx(1.0)

    def test_span_tree_shape(self, fig1):
        (run,) = fig1.spans
        assert run.name == "run" and run.finished
        incident = [c for c in run.children
                    if not c.name.startswith("state:")]
        names = [c.name for c in incident]
        assert names == ["detect", "scan", "scan", "scan", "heal"]
        heal = incident[-1]
        assert [c.name for c in heal.children] == ["undo", "redo"]
        undo, redo = heal.children
        assert undo.attributes["tasks"] == 7
        assert redo.attributes["tasks"] == 6
        for child in incident + heal.children:
            assert child.finished and child.duration > 0
            assert child.start >= run.start
            assert child.end <= run.end + 1e-9
        text = render_span_tree(fig1.spans)
        assert "- run" in text and "undo" in text

    def test_incident_span_times(self, fig1):
        """Incident spans are timed on the run's sim-time clock: detect
        ends when the first scan starts, each scan ends when its unit
        is queued, and undo and redo run from their first task to the
        end of their last (each task lasting TASK_TIME)."""
        (run,) = fig1.spans
        got = [(c.name, c.start, c.end) for c in run.children
               if not c.name.startswith("state:")]
        heal = run.children[-1]
        got += [(c.name, c.start, c.end) for c in heal.children]
        scans = [0.1, 0.1 + SCAN_TIME, 0.1 + 3 * SCAN_TIME,
                 0.1 + 6 * SCAN_TIME]
        heal_end = scans[-1] + 13 * TASK_TIME
        want = [
            ("detect", 0.0, 0.1),
            ("scan", scans[0], scans[1]),
            ("scan", scans[1], scans[2]),
            ("scan", scans[2], scans[3]),
            ("heal", scans[3], heal_end),
            # 5 closure undos from the heal's start; the last undo (the
            # stale-read t6, after 4 redos and t3's abandonment) is the
            # 11th task.
            ("undo", scans[3], scans[3] + 11 * TASK_TIME),
            ("redo", scans[3] + 5 * TASK_TIME, heal_end),
        ]
        assert [n for n, _, _ in got] == [n for n, _, _ in want]
        for (_, start, end), (_, want_start, want_end) in zip(got, want):
            assert start == pytest.approx(want_start, abs=1e-12)
            assert end == pytest.approx(want_end, abs=1e-12)

    def test_event_stream_is_time_ordered_and_complete(self, fig1):
        times = [e.time for e in fig1.events]
        assert times == sorted(times)
        kinds = {e.kind for e in fig1.events}
        assert {"AlertEnqueued", "StateTransition",
                "UnitEmitted", "HealStarted", "HealFinished",
                "TaskUndone", "TaskRedone",
                "NormalTaskRefused"} <= kinds
        (finished,) = [e for e in fig1.events
                       if isinstance(e, HealFinished)]
        assert finished.undone == 7
        assert finished.redone + finished.new_executions == 6
        assert finished.duration == pytest.approx(13 * TASK_TIME)

    def test_scan_costs_reflect_outstanding_units(self, fig1):
        """Each scan is one UnitEmitted; the queue depth after its push
        is 1 + the units outstanding (0, 1, 2), and SimTimeDriver bills
        scan_time times that depth."""
        scans = [e for e in fig1.events if isinstance(e, UnitEmitted)]
        assert [s.queue_depth for s in scans] == [1, 2, 3]
        assert [s.uid for s in scans] == [
            "wf1/t1#1", "noise/t0#1", "noise/t0#2"]
        times = [s.time for s in scans]
        assert [b - a for a, b in zip(times, times[1:])] == pytest.approx(
            [SCAN_TIME, 2 * SCAN_TIME])
        (started,) = [e for e in fig1.events if isinstance(e, HealStarted)]
        assert started.time - times[-1] == pytest.approx(3 * SCAN_TIME)

    def test_undersized_recovery_buffer_drains_and_heals(self, fig1):
        """A full recovery queue blocks the analyzer; the sweep drains
        it and scans on, so every alert is healed in one batch."""
        run = observe_figure1(false_alarms=3, alert_buffer=8,
                              recovery_buffer=1)
        (started,) = [e for e in run.events if isinstance(e, HealStarted)]
        assert set(started.malicious) == {
            "wf1/t1#1", *(f"noise/t0#{i}" for i in (1, 2, 3))}
        assert run.metrics.heals.value == 1
        assert run.metrics.recovery_depth.high_water == 1
        assert run.audit.ok, run.audit.problems
        assert replay_conformance(run.events).violations == []
        assert set(run.result.undone) == set(fig1.result.undone)
        assert set(run.result.redone) == set(fig1.result.redone)

    def test_figure1_log_is_finalized(self, tmp_path, capsys):
        """The run ends at quiescence, so the log asks replay to close
        the LTLf trace, as the online monitor does."""
        path = tmp_path / "figure1.jsonl"
        assert main(["obs", "record", "--scenario", "figure1",
                     "--log", str(path)]) == 0
        capsys.readouterr()
        assert load_flight_log(str(path)).meta["conformance_finalized"]

    def test_alert_overflow_counts_losses(self):
        run = observe_figure1(false_alarms=4, alert_buffer=2,
                              recovery_buffer=8)
        m = run.metrics
        assert m.alerts_lost.value == 3  # 5 offered into capacity 2
        assert m.loss_fraction == pytest.approx(3 / 5)
        assert m.alert_depth.high_water == 2  # never exceeds capacity

    def test_instrumentation_does_not_change_the_heal(self, fig1):
        """No-op-by-default contract: an unobserved run heals exactly
        the same instances the instrumented one does."""
        from repro.ids.alerts import Alert
        from repro.system import SelfHealingSystem

        sc = build_figure1(attacked=True)
        system = SelfHealingSystem(sc.manager, alert_buffer=8,
                                   recovery_buffer=8)
        system.submit_alert(Alert(0.0, sc.malicious_uid))
        for i in range(2):
            system.submit_alert(Alert(0.0, f"noise/t0#{i + 1}"))
        (plain,) = system.sweep()
        observed = fig1.result
        assert set(plain.undone) == set(observed.undone)
        assert set(plain.redone) == set(observed.redone)
        assert set(plain.kept) == set(observed.kept)
        assert set(plain.abandoned) == set(observed.abandoned)


class TestFullstackObserved:
    def test_metrics_agree_with_simulator_result(self):
        from repro.sim.fullstack import FullStackConfig, run_replication

        m, _, result = observe(run_replication, FullStackConfig(),
                               30.0, 0)
        assert m.alerts_lost.value == result.alerts_lost
        assert (m.alerts_enqueued.value + m.alerts_lost.value
                == result.attacks)
        assert m.heals.value == result.heals
        assert m.tasks_undone.value == result.repaired_instances
        assert result.all_heals_audited_ok
        # dwell accounting mirrors the simulator's occupancies
        for cat, frac in result.category_occupancy.items():
            measured = m.time_in_state(cat.name) / result.horizon
            assert measured == pytest.approx(frac, abs=1e-6)


class TestGillespieObserved:
    def test_transition_events_drive_dwell_accounting(self):
        from repro.markov.degradation import power_law
        from repro.markov.stg import RecoverySTG
        from repro.sim.ctmc_sim import run_replication

        stg = RecoverySTG(arrival_rate=1.0, scan=power_law(15.0, 1.0),
                          recovery=power_law(20.0, 1.0), recovery_buffer=4)
        m, events, _ = observe(run_replication, stg, 50.0, 3)
        total = sum(m.time_in_state(s) for s in m.dwell_states())
        assert total == pytest.approx(50.0)
        assert m.time_in_state("NORMAL") > 0
        assert any(isinstance(e, StateTransition) for e in events)
        assert any(isinstance(e, AlertEnqueued) for e in events)
        assert m.alerts_enqueued.value > 0
        assert all(not isinstance(e, (TaskUndone, TaskRedone))
                   for e in events)  # the CTMC abstracts heal work
