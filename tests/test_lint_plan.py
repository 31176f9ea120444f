"""Tests for the independent plan verifier.

The verifier must (a) accept every plan the real analyzer produces and
every order the real heal publishes, (b) reject seeded mutations of
those plans and orders with the right rule ids, and (c) genuinely share
no code with the analyzer stack it is checking.
"""

import ast
import json
from dataclasses import replace
from pathlib import Path

import pytest

import repro.lint.plan_verifier as plan_verifier_module
from repro.core.actions import Action
from repro.core.analyzer import RecoveryAnalyzer
from repro.lint import verify_flight_log, verify_order, verify_plan
from repro.lint.diagnostics import Severity
from repro.obs.events import OrderConstraint, RedoDecision
from repro.obs.monitor import replay_conformance
from repro.obs.recorder import FlightRecorder, read_flight_log
from repro.scenarios.figure1 import build_figure1
from repro.system import SelfHealingSystem
from repro.workflow.precedence import PartialOrder
from tests.conftest import observed_heal, reversed_t31_events


def figure1_case():
    """Unhealed figure1 scenario with its (verified-clean) plan."""
    sc = build_figure1(attacked=True)
    plan = RecoveryAnalyzer(sc.log, sc.specs_by_instance).analyze(
        [sc.malicious_uid]
    )
    return sc, plan


def rules_of(diags):
    return sorted({d.rule for d in diags})


def order_findings(sc, order, report):
    """The verifier's Theorem 3 findings on ``order`` as the order of
    the heal ``report`` of scenario ``sc``."""
    return verify_order(sc.log, sc.specs_by_instance, order,
                        report.malicious, sc.reported()[1])


def assert_heal_order_clean(sc):
    """Heal ``sc`` on an active bus: its order verifies clean against
    the epoch log, after the heal appended its UNDO and REDO records."""
    report, _ = observed_heal(sc)
    assert sc.audit.ok
    assert order_findings(sc, report.order, report) == []


def figure1_order():
    """Healed figure1 scenario with its heal's report."""
    sc = build_figure1(attacked=True)
    report, _ = observed_heal(sc)
    return sc, report


def rebuilt_order(order, drop=(), add=(), flip=()):
    """A copy of ``order`` with edges dropped/added/reversed."""
    copy = PartialOrder()
    for element in order.elements():
        copy.add_element(element)
    for before, after in order.edges():
        if (before, after) in drop:
            continue
        if (before, after) in flip:
            copy.add_edge(after, before)
        else:
            copy.add_edge(before, after)
    for before, after in add:
        copy.add_edge(before, after)
    return copy


class TestAcceptsAnalyzerPlans:
    def test_figure1(self):
        sc, plan = figure1_case()
        assert verify_plan(sc.log, sc.specs_by_instance, plan) == []
        assert_heal_order_clean(sc)

    def test_travel(self):
        from repro.scenarios.travel import build_travel

        sc = build_travel()
        plan = RecoveryAnalyzer(sc.log, sc.specs_by_instance).analyze(
            [sc.malicious_uid]
        )
        assert verify_plan(sc.log, sc.specs_by_instance, plan) == []
        assert_heal_order_clean(sc)

    def test_supply_chain(self):
        from repro.scenarios.supply_chain import build_supply_chain

        sc = build_supply_chain()
        plan = RecoveryAnalyzer(sc.log, sc.specs_by_instance).analyze(
            [sc.malicious_uid]
        )
        assert verify_plan(sc.log, sc.specs_by_instance, plan) == []
        assert_heal_order_clean(sc)

    def test_banking_forged_run(self):
        from repro.scenarios.banking import build_banking

        sc = build_banking()
        forged = [
            r.uid for r in sc.log.normal_records()
            if r.instance.workflow_instance == sc.forged_run
        ]
        plan = RecoveryAnalyzer(sc.log, sc.specs_by_instance).analyze(
            forged
        )
        assert verify_plan(sc.log, sc.specs_by_instance, plan) == []
        # The forged run is undone and never redone, so the heal's
        # order holds its undos and no redo of it.
        report, _ = observed_heal(sc)
        assert not any(a.uid in forged and a.kind.value == "redo"
                       for a in report.order.elements())
        assert order_findings(sc, report.order, report) == []


class TestSeededMutations:
    """≥5 distinct planner-bug classes, each caught by the right rule."""

    def test_mutation_dropped_undo(self):
        sc, plan = figure1_case()
        ua = plan.undo_analysis
        victim = sorted(ua.infected)[-1]
        mutated = replace(plan, undo_analysis=replace(
            ua, infected=ua.infected - {victim}
        ))
        diags = verify_plan(sc.log, sc.specs_by_instance, mutated)
        assert "PLAN001" in rules_of(diags)
        assert all(d.severity is Severity.ERROR for d in diags)

    def test_mutation_spurious_undo(self):
        sc, plan = figure1_case()
        ua = plan.undo_analysis
        outsider = sorted(
            {r.uid for r in sc.log.normal_records()} - ua.definite
            - ua.candidates
        )[0]
        mutated = replace(plan, undo_analysis=replace(
            ua, infected=ua.infected | {outsider}
        ))
        assert "PLAN002" in rules_of(
            verify_plan(sc.log, sc.specs_by_instance, mutated)
        )

    def test_mutation_dropped_redo(self):
        sc, plan = figure1_case()
        ra = plan.redo_analysis
        victim = sorted(ra.definite)[0]
        mutated = replace(plan, redo_analysis=replace(
            ra, definite=ra.definite - {victim}
        ))
        assert "PLAN003" in rules_of(
            verify_plan(sc.log, sc.specs_by_instance, mutated)
        )

    def test_mutation_extra_redo(self):
        sc, plan = figure1_case()
        ra = plan.redo_analysis
        outsider = sorted(
            {r.uid for r in sc.log.normal_records()}
            - plan.undo_analysis.definite
        )[0]
        mutated = replace(plan, redo_analysis=replace(
            ra, definite=ra.definite | {outsider}
        ))
        diags = verify_plan(sc.log, sc.specs_by_instance, mutated)
        assert "PLAN004" in rules_of(diags)

    def test_mutation_dropped_t33_edge(self):
        sc, report = figure1_order()
        uid = sorted(a.uid for a in report.order.elements()
                     if a.kind.value == "redo")[0]
        dropped = (Action.undo(uid), Action.redo(uid))
        mutated = rebuilt_order(report.order, drop=[dropped])
        diags = order_findings(sc, mutated, report)
        assert "PLAN005" in rules_of(diags)
        assert any("T3.3" in d.message for d in diags)

    def test_mutation_reversed_edge(self):
        sc, report = figure1_order()
        uid = sorted(a.uid for a in report.order.elements()
                     if a.kind.value == "redo")[0]
        flipped = (Action.undo(uid), Action.redo(uid))
        mutated = rebuilt_order(report.order, flip=[flipped])
        rules = rules_of(order_findings(sc, mutated, report))
        assert "PLAN005" in rules  # required direction now missing
        assert "PLAN006" in rules  # reversed direction is unjustified

    def test_mutation_spurious_edge(self):
        sc, report = figure1_order()
        # No Theorem 3 rule ever orders a redo before another
        # instance's undo, so this edge is unjustified by construction.
        redos = sorted(a.uid for a in report.order.elements()
                       if a.kind.value == "redo")
        undos = sorted(a.uid for a in report.order.elements()
                       if a.kind.value == "undo")
        extra = (Action.redo(redos[0]),
                 Action.undo(next(u for u in undos if u != redos[0])))
        assert extra not in set(report.order.edges())
        mutated = rebuilt_order(report.order, add=[extra])
        assert "PLAN006" in rules_of(order_findings(sc, mutated, report))

    def test_mutation_cycle(self):
        sc, report = figure1_order()
        before, after = sorted(
            report.order.edges(), key=lambda e: (str(e[0]), str(e[1]))
        )[0]
        mutated = rebuilt_order(report.order, add=[(after, before)])
        assert "PLAN007" in rules_of(order_findings(sc, mutated, report))

    def test_mutation_order_elements(self):
        sc, report = figure1_order()
        mutated = rebuilt_order(report.order)
        mutated.add_element(Action.redo("wf2/t7#1"))
        assert "PLAN008" in rules_of(order_findings(sc, mutated, report))

    def test_mutation_candidate_tampering(self):
        sc, plan = figure1_case()
        ua = plan.undo_analysis
        assert ua.control_candidates  # figure1 has abandoned branches
        mutated = replace(plan, undo_analysis=replace(
            ua, control_candidates=frozenset()
        ))
        rules = rules_of(verify_plan(sc.log, sc.specs_by_instance, mutated))
        assert "PLAN009" in rules


class TestIndependence:
    """The N-version discipline, enforced: the verifier must not import
    the code it verifies, nor the shared dependence substrate."""

    FORBIDDEN = {
        "repro.core.analyzer",
        "repro.core.partial_orders",
        "repro.core.undo_redo",
        "repro.workflow.dependency",
        "repro.workflow.dominators",
    }

    def test_no_forbidden_imports(self):
        source = Path(plan_verifier_module.__file__).read_text(
            encoding="utf-8"
        )
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                imported.update(
                    f"{node.module}.{alias.name}" for alias in node.names
                )
        hits = imported & self.FORBIDDEN
        assert not hits, f"verifier imports generator code: {hits}"


class TestSystemVerifyHook:
    def test_verified_scan_step_accepts_sound_plan(self):
        sc = build_figure1(attacked=True)
        system = SelfHealingSystem(sc.manager)
        assert system.submit_alert(sc.malicious_uid)
        plan = system.scan_step()
        assert verify_plan(sc.log, sc.specs_by_instance, plan) == []
        assert system.recovery_units_queued == 1

    def test_corrupt_plan_is_flagged_at_scan_time(self, monkeypatch):
        sc = build_figure1(attacked=True)
        system = SelfHealingSystem(sc.manager)
        real_analyze = RecoveryAnalyzer.analyze

        def corrupt_analyze(analyzer, alerts, outstanding_units=0):
            plan = real_analyze(analyzer, alerts,
                                outstanding_units=outstanding_units)
            ua = plan.undo_analysis
            return replace(plan, undo_analysis=replace(
                ua, infected=ua.infected - {sorted(ua.infected)[-1]}
            ))

        monkeypatch.setattr(RecoveryAnalyzer, "analyze", corrupt_analyze)
        system.submit_alert(sc.malicious_uid)
        plan = system.scan_step()
        assert "PLAN001" in rules_of(
            verify_plan(sc.log, sc.specs_by_instance, plan))

    def test_default_is_unverified(self, monkeypatch):
        # The pipeline never runs the verifier: checking is the
        # caller's (the fuzzer's), so the lint package stays off the
        # hot path.
        def refuse(*args, **kwargs):
            raise AssertionError("the pipeline ran the plan verifier")

        monkeypatch.setattr(plan_verifier_module, "verify_plan", refuse)
        monkeypatch.setattr(plan_verifier_module, "verify_order", refuse)
        sc = build_figure1(attacked=True)
        system = SelfHealingSystem(sc.manager)
        system.submit_alert(sc.malicious_uid)
        assert system.scan_step() is not None
        assert system.recovery_step() is not None
        assert sc.manager.audit().ok


def recorded_figure1_lines():
    """A figure1 flight log as a list of JSONL lines."""
    from repro.obs.runner import run_figure1_observed

    flight = FlightRecorder(label="figure1")
    run_figure1_observed(flight)
    flight.close()
    return [line for line in flight.text().splitlines() if line.strip()]


def log_from(lines):
    return read_flight_log("\n".join(lines))


class TestFlightLogVerification:
    @pytest.fixture(scope="class")
    def lines(self):
        return recorded_figure1_lines()

    def test_sound_log_verifies_clean(self, lines):
        assert verify_flight_log(log_from(lines)) == []

    def test_dropped_t33_edges_flagged(self, lines):
        tampered = [
            line for line in lines
            if not ('"OrderConstraint"' in line and '"T3.3"' in line)
        ]
        assert len(tampered) < len(lines)
        diags = verify_flight_log(log_from(tampered))
        assert "PLAN021" in rules_of(diags)

    def test_cyclic_recorded_edges_flagged(self, lines):
        edge = next(json.loads(line) for line in lines
                    if '"OrderConstraint"' in line)
        reversed_edge = dict(edge, before=edge["after"],
                             after=edge["before"])
        diags = verify_flight_log(
            log_from(lines + [json.dumps(reversed_edge)])
        )
        assert "PLAN020" in rules_of(diags)

    def test_schedule_violating_edge_flagged(self, lines):
        # Swap the healer's undo and redo events of one instance: the
        # realized schedule now contradicts the T3.3 edge.
        uid = next(
            json.loads(line)["uid"] for line in lines
            if '"RedoDecision"' in line
        )
        undo = next(i for i, line in enumerate(lines)
                    if '"TaskUndone"' in line and f'"{uid}"' in line)
        redo = next(i for i, line in enumerate(lines)
                    if '"TaskRedone"' in line and f'"{uid}"' in line)
        assert undo < redo
        tampered = list(lines)
        tampered[undo], tampered[redo] = lines[redo], lines[undo]
        diags = verify_flight_log(log_from(tampered))
        assert "PLAN022" in rules_of(diags)

    def test_realized_t31_reversal_flagged(self):
        """Redos realized against a recorded T3.1 edge: PLAN022, though
        every redo follows its own undo (the log is the one
        ``test_monitor`` feeds the conformance monitor)."""
        flight = FlightRecorder(label="reversed")
        for event in reversed_t31_events():
            flight(event)
        flight.close()
        diags = verify_flight_log(read_flight_log(flight.text()))
        assert rules_of(diags) == ["PLAN022"]

    def test_unplanned_execution_flagged(self, lines):
        ghost = json.dumps({
            "record": "event", "event": "TaskUndone", "time": 99.0,
            "uid": "wf9/ghost#1", "reason": "closure",
        })
        diags = verify_flight_log(log_from(lines + [ghost]))
        assert "PLAN023" in rules_of(diags)

    def test_redo_outside_undo_flagged(self, lines):
        # A definite redo decision for an instance never undone.
        ghost = json.dumps({
            "record": "event", "event": "RedoDecision", "time": 99.0,
            "uid": "wf9/ghost#1", "condition": "T2.1", "via": [],
        })
        diags = verify_flight_log(log_from(lines + [ghost]))
        assert "PLAN024" in rules_of(diags)


#: ``obs record --scenario figure1`` as recorded before heals published
#: their own orders: each observed scan published the order of its
#: unit, ahead of the heal.
SCAN_ORDER_LOG = Path(__file__).parent / "data" / "figure1_scan_orders.jsonl"


class TestHealOrders:
    def test_scan_order_log_still_replays_clean(self):
        text = SCAN_ORDER_LOG.read_text(encoding="utf-8")
        assert len(text.splitlines()) == 57
        flight = read_flight_log(text)
        assert verify_flight_log(flight) == []
        assert replay_conformance(flight.events).violations == []

    def test_batch_demoting_a_scan_redo_lints_clean(self):
        # The scan of s1w0_t3 decides it a definite (T2.1) redo, but
        # the batch also heals s1w0_t1, whose redo abandons t3: the
        # heal's order holds no redo of t3.
        from repro.scenarios.fuzz import _run_single_episode
        from repro.scenarios.generate import generate_campaign

        episode = _run_single_episode(generate_campaign(0, index=3))
        assert episode.violations == []
        flight = read_flight_log(episode.flight_text)
        uid = "s1w0.run/s1w0_t3#1"
        decided = [e for e in flight.events
                   if isinstance(e, RedoDecision) and e.uid == uid]
        assert any(e.condition == "T2.1" for e in decided)
        edges = [e for e in flight.events if isinstance(e, OrderConstraint)]
        assert edges
        assert not any(f"redo({uid})" in (e.before, e.after)
                       for e in edges)
        assert verify_flight_log(flight) == []
        assert replay_conformance(flight.events).violations == []
