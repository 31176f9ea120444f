"""A plan's Theorem 3 order is built on its first read.

The batch heal realizes Theorem 3 by how it runs and never reads
``RecoveryPlan.order``; only observed scans (which publish its edges),
the independent plan verifier and tests do.  These tests pin that the
lazily built order is the order an eager scan built, whenever it is
first read, and that nothing builds one when nothing reads it.
"""

from dataclasses import replace

import pytest

from repro.core.analyzer import RecoveryAnalyzer
from repro.core.partial_orders import recovery_partial_order
from repro.lint import verify_plan
from repro.obs.events import EventBus, EventRecorder
from repro.obs.perf import PhaseProfiler, counter_snapshot, recording
from repro.scenarios.fuzz import fuzz, run_campaign
from repro.scenarios.generate import generate_campaign, mutate_plan
from repro.sim.fullstack import FullStackConfig, run_replication
from repro.workflow.dependency import DependencyAnalyzer
from tests.test_analyzer_incremental import insertion_order
from tests.test_fuzz import EXPECTED_ORACLE

#: The overload pin's shape: the run never quiesces, so one epoch log
#: grows across many scans.
OVERLOAD = FullStackConfig(arrival_rate=8.0, alert_buffer=8,
                           recovery_buffer=8)


def shape(order):
    """Everything a reader can see of an order: its elements, edges,
    insertion order and deterministic linear extension."""
    return (order.elements(), order.edges(), insertion_order(order),
            order.topological_order())


@pytest.fixture
def eager_scans(monkeypatch):
    """Every scan's plan, paired with the shape of the order an eager
    scan built: a fresh dependency analyzer over the log as it stood
    at the scan.  The plan's own order is left unread."""
    original = RecoveryAnalyzer.analyze
    scans = []

    def analyze(self, alerts, outstanding_units=0):
        plan = original(self, alerts, outstanding_units)
        eager = recovery_partial_order(
            DependencyAnalyzer(self._log, self._specs),
            undo_set=plan.undo_analysis.definite,
            redo_set=plan.redo_analysis.definite,
        )
        eager.check_acyclic()
        scans.append((plan, shape(eager)))
        return plan

    monkeypatch.setattr(RecoveryAnalyzer, "analyze", analyze)
    return scans


class TestFirstReadIsTheEagerOrder:
    @pytest.mark.parametrize("index", range(8))
    def test_generated_campaign(self, eager_scans, index):
        outcome = run_campaign(generate_campaign(5, index=index))
        assert outcome.ok, outcome.violations
        assert eager_scans
        for plan, eager in eager_scans:
            assert shape(plan.order) == eager

    def test_overload_scans_read_after_later_scans_and_heals(
            self, eager_scans):
        # Unobserved: no scan reads its order, so every first read
        # below comes after later scans extended the epoch's analyzer
        # and after the heals committed their UNDO and REDO records.
        result = run_replication(OVERLOAD, horizon=5.0, seed=3)
        assert result.heals >= 1 and result.all_heals_audited_ok
        assert len(eager_scans) > 8
        for plan, eager in eager_scans:
            assert shape(plan.order) == eager

    def test_observed_overload_scans(self, eager_scans):
        bus = EventBus()
        EventRecorder().attach(bus)
        run_replication(OVERLOAD, horizon=5.0, seed=3, bus=bus)
        assert eager_scans
        for plan, eager in eager_scans:
            assert shape(plan.order) == eager

    def test_later_reads_return_the_first(self, figure1):
        analyzer = RecoveryAnalyzer(figure1.log, figure1.specs_by_instance)
        plan = analyzer.analyze([figure1.malicious_uid])
        first = plan.order
        analyzer.analyze(["wf2/t7#1"])
        figure1.heal_now()
        assert plan.order is first
        assert replace(plan, units=2).order is first


class TestNothingReadsNothingIsBuilt:
    def test_unobserved_fullstack_run_builds_no_order(self, monkeypatch):
        import repro.core.analyzer as analyzer_module

        builds = []
        original = analyzer_module.recovery_partial_order
        monkeypatch.setattr(
            analyzer_module, "recovery_partial_order",
            lambda *a, **k: builds.append(1) or original(*a, **k))
        prof = PhaseProfiler().start()
        with recording(prof):
            run_replication(OVERLOAD, horizon=5.0, seed=3)
        prof.stop()
        report = prof.report("fullstack")
        assert builds == []
        assert report.counters["actions_planned"] == 0
        assert report.counters["plan_memo_fills"] == 0
        assert not any(r["path"].endswith("analyze.plan")
                       for r in report.rows)
        assert report.counters["closure_recomputations"] >= 1

    def test_first_read_counts_the_build_once(self, figure1):
        analyzer = RecoveryAnalyzer(figure1.log, figure1.specs_by_instance)
        plan = analyzer.analyze([figure1.malicious_uid])
        before = counter_snapshot().get("actions_planned", 0)
        size = len(plan.order)
        assert len(plan.order) == size
        assert counter_snapshot()["actions_planned"] - before == size


class TestMutatedPlansKeepTheAnalyzersOrder:
    @pytest.mark.parametrize("kind", ["drop-undo", "extra-redo"])
    def test_mutation_changes_the_sets_not_the_order(self, figure1,
                                                     kind):
        analyzer = RecoveryAnalyzer(figure1.log, figure1.specs_by_instance)
        plan = analyzer.analyze([figure1.malicious_uid])
        mutated = mutate_plan(plan, kind, figure1.log)
        # The mutated copy reads first; it builds the analyzer's order.
        order = mutated.order
        assert plan.order is order
        eager = recovery_partial_order(
            DependencyAnalyzer(figure1.log, figure1.specs_by_instance),
            undo_set=plan.undo_analysis.definite,
            redo_set=plan.redo_analysis.definite,
        )
        assert shape(order) == shape(eager)
        rules = {d.rule for d in verify_plan(
            figure1.log, figure1.specs_by_instance, mutated)}
        assert rules & {"PLAN001", "PLAN004"}

    @pytest.mark.parametrize("kind", sorted(EXPECTED_ORACLE))
    def test_every_injected_campaign_is_caught_by_its_oracle(self, kind):
        report = fuzz(seed=0, max_campaigns=12, inject=kind)
        assert report.campaigns == 12
        assert report.caught == 12 and report.missed == 0
        assert report.monitor_caught == 12
        for _, violations in report.findings:
            assert any(v.oracle == EXPECTED_ORACLE[kind]
                       for v in violations)
