"""A Theorem 3 order is built only when something observes the heal.

Scans build no order.  A heal on an active bus builds the one order of
the batch it runs, on the dependency index the heal builds, and
publishes its edges before its first undo; an unobserved heal builds
none.  These tests pin that each heal's Theorem 2 decisions and order
are those an eager build on a fresh index over the epoch log gives, and
that nothing builds an order when nothing observes.
"""

import pytest

import repro.core.healer as healer_module
from repro.core.healer import Healer
from repro.core.partial_orders import recovery_partial_order
from repro.core.undo_redo import find_redo_tasks
from repro.obs.events import EventBus, EventRecorder, OrderConstraint
from repro.obs.perf import PhaseProfiler, counter_snapshot, recording
from repro.scenarios.fuzz import fuzz, inject_mutation, run_campaign
from repro.scenarios.generate import generate_campaign
from repro.sim.fullstack import FullStackConfig, run_replication
from repro.workflow.dependency import DependencyAnalyzer
from tests.conftest import observed_heal
from tests.test_fuzz import EXPECTED_ORACLE

#: The overload pin's shape: the run never quiesces, so one epoch log
#: grows across many scans.
OVERLOAD = FullStackConfig(arrival_rate=8.0, alert_buffer=8,
                           recovery_buffer=8)


def insertion_order(order):
    """The order's elements and each one's successor and predecessor
    sets, as iterated: equal only when built by the same inserts."""
    return [(a, list(order._succ[a]), list(order._pred[a]))
            for a in order]


def shape(order):
    """Everything a reader can see of an order: its elements, edges,
    insertion order and deterministic linear extension."""
    return (order.elements(), order.edges(), insertion_order(order),
            order.topological_order())


@pytest.fixture
def eager_heals(monkeypatch):
    """Every built heal order, paired with the shape of the order an
    eager build gives: a fresh dependency index over the epoch log as
    it stood at the heal, the batch's closure and its definite redos
    (a forged run's records left out)."""
    original = Healer._publish_order
    heals = []

    def publish_order(self, analyzer, closure, redo_analysis, forged,
                      now):
        fresh = DependencyAnalyzer(self._log, self._specs)
        assert redo_analysis == find_redo_tasks(fresh, closure)
        redos = [
            uid for uid in find_redo_tasks(fresh, closure).definite
            if fresh.record(uid).instance.workflow_instance not in forged
        ]
        eager = recovery_partial_order(fresh, closure, redos)
        eager.check_acyclic()
        built = original(self, analyzer, closure, redo_analysis, forged,
                         now)
        heals.append((built, shape(eager)))
        return built

    monkeypatch.setattr(Healer, "_publish_order", publish_order)
    return heals


def observed_bus():
    bus = EventBus()
    EventRecorder().attach(bus)
    return bus


class TestFirstReadIsTheEagerOrder:
    """A heal's one build of its order equals an eager build."""

    @pytest.mark.parametrize("index", range(8))
    def test_generated_campaign(self, eager_heals, index):
        outcome = run_campaign(generate_campaign(5, index=index))
        assert outcome.ok, outcome.violations
        assert eager_heals
        for built, eager in eager_heals:
            assert shape(built) == eager

    def test_overload_heals_order_on_the_extended_index(self, eager_heals):
        # The epoch log grows across many scans before its heal
        # decides and orders the batch.
        result = run_replication(OVERLOAD, horizon=5.0, seed=3,
                                 bus=observed_bus())
        assert result.heals >= 1 and result.all_heals_audited_ok
        assert len(eager_heals) == result.heals
        for built, eager in eager_heals:
            assert shape(built) == eager

    def test_observed_overload_scans(self, eager_heals):
        bus = observed_bus()
        edges = []
        bus.subscribe(edges.append, types=[OrderConstraint])
        run_replication(OVERLOAD, horizon=5.0, seed=3, bus=bus)
        assert eager_heals
        # Every published edge is a heal's: scans publish none.
        assert len(edges) == sum(len(built.edges())
                                 for built, _ in eager_heals)

    def test_report_holds_the_published_order(self, figure1):
        report, edges = observed_heal(figure1)
        published = [(e.before, e.after) for e in edges]
        assert len(published) == len(set(published))
        assert set(published) == {
            (str(b), str(a)) for b, a in report.order.edges()}
        report.order.check_acyclic()


class TestNothingReadsNothingIsBuilt:
    def test_unobserved_fullstack_run_builds_no_order(self, monkeypatch):
        builds = []
        original = healer_module.recovery_partial_order
        monkeypatch.setattr(
            healer_module, "recovery_partial_order",
            lambda *a, **k: builds.append(1) or original(*a, **k))
        prof = PhaseProfiler().start()
        with recording(prof):
            result = run_replication(OVERLOAD, horizon=5.0, seed=3)
        prof.stop()
        report = prof.report("fullstack")
        assert result.heals >= 1
        assert builds == []
        assert report.counters["actions_planned"] == 0
        assert not any(r["path"].endswith("heal.order")
                       for r in report.rows)
        assert report.counters["closure_recomputations"] >= 1

    def test_first_read_counts_the_build_once(self, figure1):
        before = counter_snapshot().get("actions_planned", 0)
        report, _ = observed_heal(figure1)
        assert len(report.order) > 0
        assert counter_snapshot()["actions_planned"] - before == \
            len(report.order)


class TestMutatedPlansKeepTheAnalyzersOrder:
    @pytest.mark.parametrize("kind", ["drop-undo", "extra-redo"])
    def test_mutation_changes_the_sets_not_the_order(self, eager_heals,
                                                     kind):
        # A fault changes the sets the heal undoes (drop-undo) or the
        # redo decisions it publishes (extra-redo), not the order it
        # builds over its sound Theorem 1/2 sets: every heal orders
        # what an honest run orders.
        campaign = generate_campaign(0, index=0)
        honest = run_campaign(campaign)
        assert honest.ok
        orders = [shape(built) for built, _ in eager_heals]
        eager_heals.clear()
        with inject_mutation(kind) as stats:
            mutated = run_campaign(campaign)
        assert stats["applied"] > 0 and not mutated.ok
        assert [shape(built) for built, _ in eager_heals] == orders

    @pytest.mark.parametrize("kind", sorted(EXPECTED_ORACLE))
    def test_every_injected_campaign_is_caught_by_its_oracle(self, kind):
        report = fuzz(seed=0, max_campaigns=12, inject=kind)
        assert report.campaigns == 12
        assert report.caught == 12 and report.missed == 0
        assert report.monitor_caught == 12
        for _, violations in report.findings:
            assert any(v.oracle == EXPECTED_ORACLE[kind]
                       for v in violations)
