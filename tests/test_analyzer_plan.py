"""Tests for the recovery analyzer, the Theorem 1/2 decisions of the
heal that runs its units, and the heal's order."""

import random

import pytest

from repro.core.actions import ActionKind
from repro.core.analyzer import RecoveryAnalyzer
from repro.ids.alerts import Alert
from tests.conftest import observed_heal


@pytest.fixture
def fig1_plan(figure1):
    """Figure 1 healed on an active bus, with the heal's report: its
    Theorem 1/2 decisions and its order."""
    report, edges = observed_heal(figure1)
    return figure1, report, edges


class TestRecoveryAnalyzer:
    def test_plan_covers_definite_damage(self, fig1_plan):
        figure1, report, _ = fig1_plan
        assert report.undo_analysis.definite == {
            "wf1/t1#1", "wf1/t2#1", "wf1/t4#1", "wf2/t8#1", "wf2/t10#1"
        }

    def test_plan_redo_actions_definite_only(self, fig1_plan):
        figure1, report, _ = fig1_plan
        # t4 is a candidate redo (control dependent on bad t2), so it is
        # not a definite redo.
        assert report.redo_analysis.definite == {
            "wf1/t1#1", "wf1/t2#1", "wf2/t8#1", "wf2/t10#1"
        }

    def test_units_count_alerts(self, figure1):
        analyzer = RecoveryAnalyzer(figure1.log)
        unit = analyzer.analyze(
            [Alert(0.0, figure1.malicious_uid), Alert(1.0, "wf2/t7#1")]
        )
        assert unit == (figure1.malicious_uid, "wf2/t7#1")

    def test_accepts_bare_uids(self, figure1):
        analyzer = RecoveryAnalyzer(figure1.log)
        assert analyzer.analyze([figure1.malicious_uid]) == \
            (figure1.malicious_uid,)

    def test_analysis_cost_grows_with_queue(self, figure1):
        analyzer = RecoveryAnalyzer(figure1.log)
        assert analyzer.analysis_cost(4) > analyzer.analysis_cost(1)

    def test_analyzer_never_mutates(self, figure1):
        snapshot = figure1.store.snapshot()
        n_records = len(figure1.log)
        analyzer = RecoveryAnalyzer(figure1.log)
        analyzer.analyze([figure1.malicious_uid])
        assert figure1.store.snapshot() == snapshot
        assert len(figure1.log) == n_records


class TestRecoveryPlan:
    def test_schedule_is_linear_extension(self, figure1):
        # The heal's realized undos and redos run its own order.
        report, _ = observed_heal(figure1)
        schedule = [a for a in report.actions if a in report.order]
        assert set(schedule) == set(report.order.elements())
        for before, after in report.order.edges():
            assert schedule.index(before) < schedule.index(after)

    def test_schedule_random_tiebreak_still_valid(self, figure1):
        # Any linear extension of the heal's order is a valid schedule,
        # whichever minimal action a random tie-break picks.
        report, _ = observed_heal(figure1)
        for seed in range(5):
            schedule = report.order.topological_order(
                tiebreak=random.Random(seed))
            for before, after in report.order.edges():
                assert schedule.index(before) < schedule.index(after)

    def test_total_actions_and_summary(self, fig1_plan):
        figure1, report, edges = fig1_plan
        text = report.summary()
        assert "1 malicious" in text and "7 undone" in text
        actions = set(report.order.elements())
        assert {a.uid for a in actions if a.kind is ActionKind.UNDO} == \
            report.undo_analysis.definite
        assert {a.uid for a in actions if a.kind is ActionKind.REDO} == \
            report.redo_analysis.definite
        assert len(edges) == len(report.order.edges())
