"""Tests for the live SLO health monitor and model-conformance layer
(`repro.obs.health`): calibrated no-drift runs stay OK, an injected
λ step-change is flagged within a bounded number of events, merged
conformance verdicts are order-independent, and a flight log's verdict
stream replays bit for bit.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObsError
from repro.markov.stg import RecoverySTG
from repro.obs.events import (
    DriftDetected,
    EventBus,
    EventRecorder,
    QueueItemDropped,
    SloTransition,
)
from repro.obs.health import (
    ConformanceReport,
    HealthMonitor,
    ModelPrediction,
    SloState,
    merge_conformance,
    replay_verdicts,
    wilson_interval,
)
from repro.sim.batch import run_gillespie_batch
from repro.sim.ctmc_sim import GillespieSimulator, run_replication


@pytest.fixture(scope="module")
def paper_stg():
    return RecoverySTG.paper_default()


@pytest.fixture(scope="module")
def paper_prediction(paper_stg):
    return ModelPrediction.from_stg(paper_stg)


class TestModelPrediction:
    def test_marginals_are_distributions(self, paper_prediction):
        assert sum(paper_prediction.alert_marginal) == pytest.approx(1.0)
        assert sum(paper_prediction.unit_marginal) == pytest.approx(1.0)

    def test_paper_loss_probability(self, paper_prediction):
        # Figure 4's calibrated point: lambda=1, buffer 15.
        assert paper_prediction.loss_probability == pytest.approx(
            0.00636, abs=2e-4
        )

    def test_occupancy_corr_time_positive(self, paper_prediction):
        assert paper_prediction.occupancy_corr_time > 0.0

    def test_as_dict_roundtrips_scalars(self, paper_prediction):
        d = paper_prediction.as_dict()
        assert d["loss_probability"] == paper_prediction.loss_probability
        assert d["occupancy_corr_time"] == (
            paper_prediction.occupancy_corr_time
        )


class TestWilsonInterval:
    def test_contains_proportion(self):
        low, high = wilson_interval(10, 100)
        assert low < 0.1 < high

    def test_zero_successes_has_positive_upper_bound(self):
        low, high = wilson_interval(0, 200)
        assert low == 0.0 and 0.0 < high < 0.05

    def test_no_trials_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestConformantRuns:
    """The acceptance gate: on the calibrated Figure 4 workload the
    monitor reports OK with no drift alarms, and the CTMC-predicted
    loss lies inside the Wilson interval of the run's loss fraction."""

    def test_paper_workload_stays_ok(self, paper_stg, paper_prediction):
        for seed in range(3):
            result = run_replication(
                paper_stg, horizon=600.0, seed=seed,
                health=paper_prediction,
            )
            report = result.conformance
            assert report.drift_count == 0, report.drifts
            assert report.verdict is SloState.OK

    def test_predicted_loss_within_ci(self, paper_stg, paper_prediction):
        bus = EventBus()
        monitor = HealthMonitor(paper_prediction).attach(bus)
        GillespieSimulator(
            paper_stg, random.Random(0), bus=bus
        ).run(600.0)
        loss = monitor.summary()["loss"]
        low, high = wilson_interval(loss["total_losses"],
                                    loss["total_arrivals"])
        assert low <= paper_prediction.loss_probability <= high

    def test_hot_workload_disarms_page_hinkley(self):
        # lambda=2 with buffer 8: the model's own marginal spans the
        # whole buffer, so depth carries no Page-Hinkley-separable
        # signal and arming it would false-alarm on conformant runs.
        hot = RecoverySTG.paper_default(arrival_rate=2.0, buffer_size=8)
        assert not HealthMonitor(ModelPrediction.from_stg(hot)).ph_armed

    def test_paper_workload_arms_page_hinkley(self, paper_prediction):
        assert HealthMonitor(paper_prediction).ph_armed


class TestStepChangeDetection:
    def test_lambda_step_flagged_within_bounded_time(
        self, paper_stg, paper_prediction
    ):
        """A mid-run arrival-rate step 1 -> 8 must be flagged as drift
        and breach the conformance SLO within 10 time units."""
        attack = RecoverySTG.paper_default(arrival_rate=8.0)
        for seed in range(3):
            live = EventBus()
            monitor = HealthMonitor(paper_prediction).attach(live)
            GillespieSimulator(
                paper_stg, random.Random(seed), bus=live
            ).run(200.0)
            assert monitor.report().drift_count == 0
            bus = EventBus()
            recorder = EventRecorder().attach(bus)
            GillespieSimulator(
                attack, random.Random(seed + 500), bus=bus
            ).run(30.0)
            detected_at = None
            for event in recorder.events:
                monitor.handle(
                    dataclasses.replace(event, time=event.time + 200.0)
                )
                if monitor.report().drift_count and detected_at is None:
                    detected_at = event.time
            assert detected_at is not None and detected_at < 10.0
            assert monitor.report().verdict is SloState.BREACH

    def test_rate_decrease_also_detected(self, paper_stg,
                                         paper_prediction):
        quiet = RecoverySTG.paper_default(arrival_rate=0.2)
        bus = EventBus()
        monitor = HealthMonitor(paper_prediction).attach(bus)
        GillespieSimulator(
            paper_stg, random.Random(0), bus=bus
        ).run(200.0)
        bus = EventBus()
        recorder = EventRecorder().attach(bus)
        GillespieSimulator(quiet, random.Random(42), bus=bus).run(400.0)
        for event in recorder.events:
            monitor.handle(
                dataclasses.replace(event, time=event.time + 200.0)
            )
        drifts = monitor.report().drifts
        assert any(d[0] == "cusum-arrival" and d[3] == "rate-decrease"
                   for d in drifts)


def _synthetic_report(idx: int, state: str, drift: bool):
    return ConformanceReport(
        duration=100.0,
        arrivals=90 + idx,
        losses=idx,
        scans=80,
        recoveries=70,
        predicted_loss=0.00636,
        loss_objective=0.019,
        slo_states=(("loss", state), ("model-conformance", "OK")),
        slo_transitions=1 if state != "OK" else 0,
        drifts=(("cusum-arrival", 10.0 + idx, 25.0, "rate-increase"),)
        if drift else (),
    )


class TestMergeConformance:
    def test_empty_merge_rejected(self):
        with pytest.raises(ObsError):
            merge_conformance([])

    def test_counts_add_and_severity_wins(self):
        merged = merge_conformance([
            _synthetic_report(0, "OK", False),
            _synthetic_report(1, "BREACH", True),
            _synthetic_report(2, "WARN", False),
        ])
        assert merged.replications == 3
        assert merged.arrivals == 90 + 91 + 92
        assert merged.verdict is SloState.BREACH
        assert merged.drift_count == 1

    @settings(max_examples=50, deadline=None)
    @given(perm=st.permutations(list(range(6))))
    def test_merge_order_never_changes_verdict(self, perm):
        """The ISSUE's pinned property: merging per-replication windows
        in any order yields the identical verdict, drift set, and
        counters (the worker-count invariance of batch runs)."""
        reports = [
            _synthetic_report(i, ["OK", "WARN", "BREACH"][i % 3],
                              drift=(i % 2 == 0))
            for i in range(6)
        ]
        baseline = merge_conformance(reports)
        shuffled = merge_conformance([reports[i] for i in perm])
        assert shuffled.verdict is baseline.verdict
        assert shuffled.slo_states == baseline.slo_states
        assert shuffled.drifts == baseline.drifts
        assert shuffled.arrivals == baseline.arrivals
        assert shuffled.losses == baseline.losses
        assert shuffled.replications == baseline.replications


class TestBatchInvariance:
    def test_worker_count_preserves_conformance(self, paper_stg,
                                                paper_prediction):
        serial = run_gillespie_batch(
            paper_stg, horizon=100.0, replications=4, workers=1,
            seed=0, health=paper_prediction,
        )
        parallel = run_gillespie_batch(
            paper_stg, horizon=100.0, replications=4, workers=2,
            seed=0, health=paper_prediction,
        )
        assert serial.conformance == parallel.conformance


class TestReplayVerdicts:
    def test_gillespie_verdict_stream_replays_identically(self):
        # A lossy workload so SLO transitions and drifts actually
        # happen; the monitor is a pure function of the event stream,
        # so re-deriving from the recorded events must match exactly.
        stg = RecoverySTG.paper_default(arrival_rate=6.0, buffer_size=3)
        prediction = ModelPrediction.from_stg(stg)
        objective = 0.01  # far below reality
        bus = EventBus()
        recorder = EventRecorder().attach(bus)
        monitor = HealthMonitor(prediction, objective).attach(bus)
        GillespieSimulator(stg, random.Random(2), bus=bus).run(150.0)
        recorded = [e for e in recorder.events
                    if isinstance(e, (SloTransition, DriftDetected))]
        assert recorded, "lossy run should produce verdict events"
        assert recorded == monitor.emitted
        replayed = replay_verdicts(recorder.events, prediction,
                                   loss_objective=objective)
        assert replayed == recorded

    def test_fullstack_flight_log_replays_identically(self):
        from repro.sim.fullstack import FullStackConfig, run_replication

        cfg = FullStackConfig(arrival_rate=6.0, alert_buffer=3,
                              recovery_buffer=3)
        prediction = ModelPrediction.from_stg(cfg.stg())
        objective = 0.01
        bus = EventBus()
        recorder = EventRecorder().attach(bus)
        result = run_replication(cfg, 80.0, 5, bus=bus, health=prediction,
                                 loss_objective=objective)
        verdicts = (SloTransition, DriftDetected)
        recorded = [e for e in recorder.events if isinstance(e, verdicts)]
        assert recorded, "tight objective should force transitions"
        assert len(recorded) == (result.conformance.slo_transitions
                                 + result.conformance.drift_count)
        events = [e for e in recorder.events
                  if not isinstance(e, verdicts)]
        assert replay_verdicts(events, prediction,
                               loss_objective=objective) == recorded


class TestQueueDropEvents:
    def test_bounded_queue_publishes_typed_drop(self):
        from repro.ids.alerts import BoundedQueue

        bus = EventBus()
        recorder = EventRecorder().attach(bus)
        queue = BoundedQueue(capacity=2)
        queue.instrument("alert", bus, lambda: 3.5)
        assert queue.offer("a") and queue.offer("b")
        assert not queue.offer("c")
        drops = [e for e in recorder.events
                 if isinstance(e, QueueItemDropped)]
        assert len(drops) == 1
        drop = drops[0]
        assert drop.queue == "alert"
        assert drop.depth == 2
        assert drop.lost_total == 1
        assert drop.time == 3.5
