"""Tests for the recovery analyzer and recovery plans."""

import dataclasses
import random

import pytest

from repro.core.actions import Action, ActionKind
from repro.core.analyzer import RecoveryAnalyzer
from repro.ids.alerts import Alert
from repro.obs.events import EventBus, OrderConstraint
from repro.workflow.precedence import PartialOrder


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

    def test_cross_unit_constraints_on_conflicts(self, figure1):
        """A new unit touching the same instances/objects as a queued
        unit is ordered after it (Section V-A's cross-checking work)."""
        analyzer = RecoveryAnalyzer(figure1.log, figure1.specs_by_instance)
        first = analyzer.analyze([figure1.malicious_uid])
        # The same alert again: total overlap ⇒ many constraints, all
        # pointing from the outstanding unit to the new one.
        second = analyzer.analyze(
            [figure1.malicious_uid], outstanding=[first]
        )
        assert second.cross_unit_constraints
        firsts = first.order.elements()
        seconds = second.order.elements()
        for prior, new in second.cross_unit_constraints:
            assert prior in firsts
            assert new in seconds

    def test_no_cross_unit_constraints_without_outstanding(self, figure1):
        analyzer = RecoveryAnalyzer(figure1.log, figure1.specs_by_instance)
        plan = analyzer.analyze([figure1.malicious_uid])
        assert plan.cross_unit_constraints == ()

    def test_disjoint_units_unconstrained(self, figure1):
        """Units about non-conflicting tasks need no cross ordering."""
        analyzer = RecoveryAnalyzer(figure1.log, figure1.specs_by_instance)
        # t7 writes only p; t3 reads c and writes u — no shared objects.
        first = analyzer.analyze(["wf2/t7#1"])
        second = analyzer.analyze(["wf1/t3#1"], outstanding=[first])
        shared_object_conflicts = [
            (p, n) for p, n in second.cross_unit_constraints
        ]
        assert not shared_object_conflicts

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


def traced_analyze(figure1, alerts, outstanding):
    """Analyze on an active bus; return the plan and its ``XU`` edges
    as ``(before, after)`` strings in publication order."""
    bus = EventBus()
    events = []
    bus.subscribe(events.append, types=[OrderConstraint])
    analyzer = RecoveryAnalyzer(figure1.log, figure1.specs_by_instance,
                                bus=bus)
    plan = analyzer.analyze(alerts, outstanding=outstanding)
    return plan, [(e.before, e.after) for e in events if e.rule == "XU"]


def as_strings(pairs):
    return [(str(prior), str(action)) for prior, action in pairs]


class TestFactoredCrossUnitView:
    """``cross_unit_constraints`` is expanded from factored rows; the
    ``XU`` events are published from the same rows.  Both must list the
    same pairs in the same order."""

    @pytest.fixture
    def queued_t7(self, figure1):
        analyzer = RecoveryAnalyzer(figure1.log, figure1.specs_by_instance)
        return analyzer.analyze(["wf2/t7#1"])

    def test_prior_conflicting_with_every_new_action(self, figure1,
                                                     queued_t7):
        # t7 writes p and t9 reads it: undo/redo of t7 precede both of
        # t9's actions, stored as one "all" row each.
        plan, xu = traced_analyze(figure1, ["wf2/t9#1"], [queued_t7])
        all_rows = [prior for prior, hits in plan.cross_unit_rows
                    if hits is None]
        assert Action.undo("wf2/t7#1") in all_rows
        assert Action.redo("wf2/t7#1") in all_rows
        assert xu == as_strings(plan.cross_unit_constraints)
        assert len(xu) == len(all_rows) * len(plan.cross_unit_actions)

    def test_prior_with_no_conflicts_has_no_row(self, figure1, queued_t7):
        # t10 reads q and writes z2; t9 reads p and writes s9.
        plan, xu = traced_analyze(figure1, ["wf2/t9#1"], [queued_t7])
        priors = {prior for prior, _ in plan.cross_unit_rows}
        assert Action.undo("wf2/t10#1") not in priors
        assert not any(before == "undo(wf2/t10#1)" for before, _ in xu)
        assert xu == as_strings(plan.cross_unit_constraints)

    def test_partial_rows(self, figure1):
        analyzer = RecoveryAnalyzer(figure1.log, figure1.specs_by_instance)
        first = analyzer.analyze([figure1.malicious_uid])
        plan, xu = traced_analyze(figure1, ["wf1/t3#1"], [first])
        assert any(hits is not None and
                   len(hits) < len(plan.cross_unit_actions)
                   for _, hits in plan.cross_unit_rows)
        assert xu == as_strings(plan.cross_unit_constraints)

    def test_prior_from_an_older_epoch_is_skipped(self, figure1,
                                                  queued_t7):
        stale = Action.undo("retired/t1#1")  # not in this log
        mixed = dataclasses.replace(queued_t7, order=PartialOrder(
            [stale, *queued_t7.order.elements()]))
        plan, xu = traced_analyze(figure1, ["wf2/t9#1"], [mixed])
        reference, _ = traced_analyze(figure1, ["wf2/t9#1"], [queued_t7])
        assert stale not in {prior for prior, _ in plan.cross_unit_rows}
        assert plan.cross_unit_constraints == \
            reference.cross_unit_constraints
        assert xu == as_strings(plan.cross_unit_constraints)

    def test_view_survives_replace_of_order(self, figure1):
        analyzer = RecoveryAnalyzer(figure1.log, figure1.specs_by_instance)
        first = analyzer.analyze([figure1.malicious_uid])
        plan, xu = traced_analyze(figure1, [figure1.malicious_uid], [first])
        assert xu
        rebuilt = dataclasses.replace(
            plan, order=PartialOrder(plan.order.elements()))
        assert rebuilt.cross_unit_constraints == plan.cross_unit_constraints
        assert as_strings(rebuilt.cross_unit_constraints) == xu

    def test_tracing_does_not_change_the_plan(self, figure1, queued_t7):
        plan, _ = traced_analyze(figure1, ["wf2/t9#1"], [queued_t7])
        analyzer = RecoveryAnalyzer(figure1.log, figure1.specs_by_instance)
        untraced = analyzer.analyze(["wf2/t9#1"], outstanding=[queued_t7])
        assert untraced.cross_unit_actions == plan.cross_unit_actions
        assert untraced.cross_unit_rows == plan.cross_unit_rows
