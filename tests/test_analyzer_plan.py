"""Tests for the recovery analyzer and recovery plans."""

import random

import pytest

from repro.core.actions import ActionKind
from repro.core.analyzer import RecoveryAnalyzer
from repro.ids.alerts import Alert


@pytest.fixture
def fig1_plan(figure1):
    analyzer = RecoveryAnalyzer(figure1.log, figure1.specs_by_instance)
    plan = analyzer.analyze([Alert(0.0, figure1.malicious_uid)])
    return figure1, analyzer, plan


class TestRecoveryAnalyzer:
    def test_plan_covers_definite_damage(self, fig1_plan):
        figure1, analyzer, plan = fig1_plan
        undo_uids = {a.uid for a in plan.actions if a.kind == ActionKind.UNDO}
        assert undo_uids == {
            "wf1/t1#1", "wf1/t2#1", "wf1/t4#1", "wf2/t8#1", "wf2/t10#1"
        }

    def test_plan_redo_actions_definite_only(self, fig1_plan):
        figure1, analyzer, plan = fig1_plan
        redo_uids = {a.uid for a in plan.actions if a.kind == ActionKind.REDO}
        # t4 is a candidate redo (control dependent on bad t2), so it is
        # not in the definite schedule.
        assert redo_uids == {
            "wf1/t1#1", "wf1/t2#1", "wf2/t8#1", "wf2/t10#1"
        }

    def test_units_count_alerts(self, figure1):
        analyzer = RecoveryAnalyzer(figure1.log, figure1.specs_by_instance)
        plan = analyzer.analyze(
            [Alert(0.0, figure1.malicious_uid), Alert(1.0, "wf2/t7#1")]
        )
        assert plan.units == 2
        assert plan.alert_uids == (figure1.malicious_uid, "wf2/t7#1")

    def test_accepts_bare_uids(self, figure1):
        analyzer = RecoveryAnalyzer(figure1.log, figure1.specs_by_instance)
        plan = analyzer.analyze([figure1.malicious_uid])
        assert plan.units == 1

    def test_analysis_cost_grows_with_queue(self, figure1):
        analyzer = RecoveryAnalyzer(figure1.log, figure1.specs_by_instance)
        assert analyzer.analysis_cost(4) > analyzer.analysis_cost(1)

    def test_analyzer_never_mutates(self, figure1):
        snapshot = figure1.store.snapshot()
        n_records = len(figure1.log)
        analyzer = RecoveryAnalyzer(figure1.log, figure1.specs_by_instance)
        analyzer.analyze([figure1.malicious_uid])
        assert figure1.store.snapshot() == snapshot
        assert len(figure1.log) == n_records


class TestRecoveryPlan:
    def test_schedule_is_linear_extension(self, fig1_plan):
        figure1, analyzer, plan = fig1_plan
        schedule = plan.schedule()
        assert set(schedule) == set(plan.order.elements())
        for before, after in plan.order.edges():
            assert schedule.index(before) < schedule.index(after)

    def test_schedule_random_tiebreak_still_valid(self, fig1_plan):
        figure1, analyzer, plan = fig1_plan
        for seed in range(5):
            schedule = plan.schedule(rng=random.Random(seed))
            for before, after in plan.order.edges():
                assert schedule.index(before) < schedule.index(after)

    def test_total_actions_and_summary(self, fig1_plan):
        figure1, analyzer, plan = fig1_plan
        assert len(plan.actions) == len(plan.order)
        assert {a.kind for a in plan.actions} == {ActionKind.UNDO,
                                                  ActionKind.REDO}
        text = plan.summary()
        assert "1 alerts" in text and "definite undo" in text
