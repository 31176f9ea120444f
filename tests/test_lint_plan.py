"""Tests for the independent heal verifier.

The verifier must (a) accept every heal the real healer runs — its
Theorem 1/2 decisions and the order it publishes — (b) reject seeded
mutations of those decisions and orders with the right rule ids, and
(c) genuinely share no code with the analysis stack it is checking.
"""

import ast
import json
from dataclasses import replace
from pathlib import Path

import pytest

import repro.core.healer as healer_module
import repro.lint.plan_verifier as plan_verifier_module
from repro.core.actions import Action
from repro.lint import verify_flight_log, verify_heal
from repro.lint.diagnostics import Severity
from repro.obs.events import (
    EventBus,
    EventRecorder,
    OrderConstraint,
    RedoDecision,
)
from repro.obs.monitor import replay_conformance
from repro.obs.recorder import FlightRecorder, read_flight_log
from repro.scenarios.figure1 import build_figure1
from repro.system import SelfHealingSystem
from repro.workflow.precedence import PartialOrder
from tests.conftest import observed_heal, reversed_t31_events


def rules_of(diags):
    return sorted({d.rule for d in diags})


def heal_findings(sc, report):
    """The verifier's findings on ``report`` as a heal of scenario
    ``sc`` (its epoch log, after the heal appended its records)."""
    return verify_heal(sc.log, sc.specs_by_instance, report,
                       sc.reported()[1])


def assert_heal_clean(sc):
    """Heal ``sc`` on an active bus: its decisions and order verify
    clean against the epoch log."""
    report, _ = observed_heal(sc)
    assert sc.audit.ok
    assert heal_findings(sc, report) == []
    return report


def figure1_heal():
    """Healed figure1 scenario with its observed heal's report."""
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


def order_findings(sc, order, report):
    """The verifier's findings on ``report`` with ``order`` as its
    order."""
    return heal_findings(sc, replace(report, order=order))


class TestAcceptsAnalyzerPlans:
    def test_figure1(self):
        assert_heal_clean(build_figure1(attacked=True))

    def test_travel(self):
        from repro.scenarios.travel import build_travel

        assert_heal_clean(build_travel())

    def test_supply_chain(self):
        from repro.scenarios.supply_chain import build_supply_chain

        assert_heal_clean(build_supply_chain())

    def test_banking_forged_run(self):
        from repro.scenarios.banking import build_banking

        sc = build_banking()
        forged = [
            r.uid for r in sc.log.normal_records()
            if r.instance.workflow_instance == sc.forged_run
        ]
        report = assert_heal_clean(sc)
        # The forged run is undone and never redone, so the heal's
        # order holds its undos and no redo of it.
        assert set(forged) <= report.undo_analysis.definite
        assert not any(a.uid in forged and a.kind.value == "redo"
                       for a in report.order.elements())


class TestSeededMutations:
    """≥5 distinct heal-bug classes, each caught by the right rule."""

    def test_mutation_dropped_undo(self):
        sc, report = figure1_heal()
        ua = report.undo_analysis
        victim = sorted(ua.infected)[-1]
        mutated = replace(report, undo_analysis=replace(
            ua, infected=ua.infected - {victim}
        ))
        diags = heal_findings(sc, mutated)
        assert "PLAN001" in rules_of(diags)
        assert all(d.severity is Severity.ERROR for d in diags)

    def test_mutation_spurious_undo(self):
        sc, report = figure1_heal()
        ua = report.undo_analysis
        outsider = sorted(
            {r.uid for r in sc.log.normal_records()} - ua.definite
            - ua.candidates
        )[0]
        mutated = replace(report, undo_analysis=replace(
            ua, infected=ua.infected | {outsider}
        ))
        assert "PLAN002" in rules_of(heal_findings(sc, mutated))

    def test_mutation_dropped_redo(self):
        sc, report = figure1_heal()
        ra = report.redo_analysis
        victim = sorted(ra.definite)[0]
        mutated = replace(report, redo_analysis=replace(
            ra, definite=ra.definite - {victim}
        ))
        assert "PLAN003" in rules_of(heal_findings(sc, mutated))

    def test_mutation_extra_redo(self):
        sc, report = figure1_heal()
        ra = report.redo_analysis
        outsider = sorted(
            {r.uid for r in sc.log.normal_records()}
            - report.undo_analysis.definite
        )[0]
        mutated = replace(report, redo_analysis=replace(
            ra, definite=ra.definite | {outsider}
        ))
        assert "PLAN004" in rules_of(heal_findings(sc, mutated))

    def test_mutation_dropped_t33_edge(self):
        sc, report = figure1_heal()
        uid = sorted(a.uid for a in report.order.elements()
                     if a.kind.value == "redo")[0]
        dropped = (Action.undo(uid), Action.redo(uid))
        mutated = rebuilt_order(report.order, drop=[dropped])
        diags = order_findings(sc, mutated, report)
        assert "PLAN005" in rules_of(diags)
        assert any("T3.3" in d.message for d in diags)

    def test_mutation_reversed_edge(self):
        sc, report = figure1_heal()
        uid = sorted(a.uid for a in report.order.elements()
                     if a.kind.value == "redo")[0]
        flipped = (Action.undo(uid), Action.redo(uid))
        mutated = rebuilt_order(report.order, flip=[flipped])
        rules = rules_of(order_findings(sc, mutated, report))
        assert "PLAN005" in rules  # required direction now missing
        assert "PLAN006" in rules  # reversed direction is unjustified

    def test_mutation_spurious_edge(self):
        sc, report = figure1_heal()
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
        sc, report = figure1_heal()
        before, after = sorted(
            report.order.edges(), key=lambda e: (str(e[0]), str(e[1]))
        )[0]
        mutated = rebuilt_order(report.order, add=[(after, before)])
        assert "PLAN007" in rules_of(order_findings(sc, mutated, report))

    def test_mutation_order_elements(self):
        sc, report = figure1_heal()
        mutated = rebuilt_order(report.order)
        mutated.add_element(Action.redo("wf2/t7#1"))
        assert "PLAN008" in rules_of(order_findings(sc, mutated, report))

    def test_mutation_candidate_tampering(self):
        sc, report = figure1_heal()
        ua = report.undo_analysis
        assert ua.control_candidates  # figure1 has abandoned branches
        mutated = replace(report, undo_analysis=replace(
            ua, control_candidates=frozenset()
        ))
        assert "PLAN009" in rules_of(heal_findings(sc, mutated))

    def test_unobserved_heal_checks_theorem_1_only(self):
        sc = build_figure1(attacked=True)
        report = sc.heal_now()
        assert report.redo_analysis is None and report.order is None
        assert heal_findings(sc, report) == []
        ua = report.undo_analysis
        mutated = replace(report, undo_analysis=replace(
            ua, infected=ua.infected - {sorted(ua.infected)[-1]}
        ))
        assert rules_of(heal_findings(sc, mutated)) == ["PLAN001"]


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
    def observed_system(self, sc):
        bus = EventBus()
        EventRecorder().attach(bus)
        return bus, SelfHealingSystem(sc.manager, bus=bus)

    def test_verified_scan_step_accepts_sound_plan(self):
        # The scanned unit's heal, the plan that runs, verifies clean.
        sc = build_figure1(attacked=True)
        bus, system = self.observed_system(sc)
        assert system.submit_alert(sc.malicious_uid)
        assert system.scan_step() == (sc.malicious_uid,)
        assert system.recovery_units_queued == 1
        report = system.recovery_step()
        assert heal_findings(sc, report) == []

    def test_corrupt_heal_decisions_are_flagged(self, monkeypatch):
        sc = build_figure1(attacked=True)
        bus, system = self.observed_system(sc)
        real_decide = healer_module.decide_batch

        def corrupt_decide(index, bad, time=None):
            ua, ra, decisions = real_decide(index, bad, time)
            return replace(ua, infected=ua.infected - {
                sorted(ua.infected)[-1]}), ra, decisions

        monkeypatch.setattr(healer_module, "decide_batch", corrupt_decide)
        system.submit_alert(sc.malicious_uid)
        system.scan_step()
        report = system.recovery_step()
        assert "PLAN001" in rules_of(heal_findings(sc, report))

    def test_default_is_unverified(self, monkeypatch):
        # The pipeline never runs the verifier: checking is the
        # caller's (the fuzzer's), so the lint package stays off the
        # hot path.
        def refuse(*args, **kwargs):
            raise AssertionError("the pipeline ran the heal verifier")

        monkeypatch.setattr(plan_verifier_module, "verify_heal", refuse)
        sc = build_figure1(attacked=True)
        bus, system = self.observed_system(sc)
        system.submit_alert(sc.malicious_uid)
        assert system.scan_step() is not None
        assert system.recovery_step() is not None
        assert sc.manager.audit().ok


def recorded_figure1_lines():
    """A figure1 flight log as a list of JSONL lines."""
    from repro.obs.runner import record_incident

    flight = FlightRecorder(label="figure1")
    record_incident(build_figure1(), flight, false_alarms=2)
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

    def test_scan_order_log_loads_without_its_scan_records(self):
        """The old log's three per-scan analyzer records are a retired
        kind: loading skips them, and every other event survives."""
        text = SCAN_ORDER_LOG.read_text(encoding="utf-8")
        kinds = [json.loads(line).get("event")
                 for line in text.splitlines()]
        assert kinds.count("ScanStep") == 3
        flight = read_flight_log(text)
        assert [e.kind for e in flight.events] == [
            k for k in kinds if k is not None and k != "ScanStep"]
        assert [e.kind for e in flight.events].count("UnitEmitted") == 3

    def test_batch_demoting_a_scan_redo_lints_clean(self):
        # A scan of s1w0_t3 alone would decide it a definite (T2.1)
        # redo, but the batch also heals s1w0_t1, which controls t3:
        # the heal decides t3 a T2.2 candidate only, its order holds no
        # redo of t3, and t1's redo abandons t3.
        from repro.scenarios.fuzz import _run_single_episode
        from repro.scenarios.generate import generate_campaign

        episode = _run_single_episode(generate_campaign(0, index=3))
        assert episode.violations == []
        flight = read_flight_log(episode.flight_text)
        uid = "s1w0.run/s1w0_t3#1"
        decided = [e.condition for e in flight.events
                   if isinstance(e, RedoDecision) and e.uid == uid]
        assert decided == ["T2.2"]
        edges = [e for e in flight.events if isinstance(e, OrderConstraint)]
        assert edges
        assert not any(f"redo({uid})" in (e.before, e.after)
                       for e in edges)
        assert verify_flight_log(flight) == []
        assert replay_conformance(flight.events).violations == []
