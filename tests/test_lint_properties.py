"""Property tests: the independent heal verifier vs the real heal.

Two directions, both over random workflow systems and attack sets
(drawn through the shared strategy library in
:mod:`repro.scenarios.generate`):

- **soundness of the pair**: the Theorem 1/2 sets the analysis decides
  for a batch, the Theorem 3 order a heal of it builds, and an observed
  heal's own published decisions are accepted by the verifier (two
  independent derivations of Theorems 1-3 agree on arbitrary inputs);
- **sensitivity**: seeded mutations of those same heals (dropped undo,
  extra redo, reversed Theorem 3 edge) are always rejected.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings

from repro.core.actions import Action
from repro.core.healer import HealReport
from repro.core.partial_orders import recovery_partial_order
from repro.lint import verify_heal
from repro.obs.events import EventBus, EventRecorder, UndoDecision
from repro.obs.monitor import DEFINITE_UNDO_CONDITIONS
from repro.scenarios.generate import CASE, random_attacked_case
from repro.workflow.dependency import DependencyAnalyzer
from repro.workflow.precedence import PartialOrder


def case_heal(case):
    """``(log, specs, report)``: the heal of a random case's alerts as
    its decisions and order, before it runs — the batch is the case's
    alerts, so its closure and definite redos are the case's sets."""
    attacked, alerts, undo, redo = case
    log, specs = attacked.log, attacked.specs_by_instance
    order = recovery_partial_order(DependencyAnalyzer(log, specs),
                                   undo.definite, redo.definite)
    report = HealReport(malicious=frozenset(alerts), undo_analysis=undo,
                        redo_analysis=redo, order=order)
    return log, specs, report


def rules(log, specs, report):
    return {d.rule for d in verify_heal(log, specs, report)}


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**CASE)
def test_verifier_accepts_every_analyzer_plan(seed, n_attacks,
                                              branchiness, loopiness):
    case = random_attacked_case(seed, n_attacks, branchiness, loopiness)
    if case is None:
        return
    log, specs, report = case_heal(case)
    diags = verify_heal(log, specs, report)
    assert diags == [], [d.render() for d in diags[:5]]


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**CASE)
def test_observed_heal_publishes_its_closure_and_verifies_clean(
        seed, n_attacks, branchiness, loopiness):
    case = random_attacked_case(seed, n_attacks, branchiness, loopiness)
    if case is None:
        return
    attacked, alerts, undo, _ = case
    bus = EventBus()
    recorder = EventRecorder().attach(bus)
    report = attacked.manager.heal(alerts, bus=bus)
    published = {
        e.uid for e in recorder.events
        if isinstance(e, UndoDecision)
        and e.condition in DEFINITE_UNDO_CONDITIONS
    }
    assert published == report.undo_analysis.definite == undo.definite
    assert published <= set(report.undone)
    diags = verify_heal(attacked.log, attacked.specs_by_instance, report)
    assert diags == [], [d.render() for d in diags[:5]]


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**CASE)
def test_verifier_rejects_dropped_undo(seed, n_attacks, branchiness,
                                       loopiness):
    case = random_attacked_case(seed, n_attacks, branchiness, loopiness)
    if case is None:
        return
    log, specs, report = case_heal(case)
    ua = report.undo_analysis
    victim = sorted(ua.definite)[-1]
    mutated = replace(report, undo_analysis=replace(
        ua, malicious=ua.malicious - {victim},
        infected=ua.infected - {victim}))
    assert "PLAN001" in rules(log, specs, mutated)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**CASE)
def test_verifier_rejects_extra_redo(seed, n_attacks, branchiness,
                                     loopiness):
    case = random_attacked_case(seed, n_attacks, branchiness, loopiness)
    if case is None:
        return
    log, specs, report = case_heal(case)
    outsiders = sorted({r.uid for r in log.normal_records()}
                       - report.undo_analysis.definite)
    if not outsiders:
        return  # everything was infected; no clean instance to inject
    ra = report.redo_analysis
    mutated = replace(report, redo_analysis=replace(
        ra, definite=ra.definite | {outsiders[0]}))
    assert "PLAN004" in rules(log, specs, mutated)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**CASE)
def test_verifier_rejects_reversed_t33_edge(seed, n_attacks,
                                            branchiness, loopiness):
    case = random_attacked_case(seed, n_attacks, branchiness, loopiness)
    if case is None:
        return
    log, specs, report = case_heal(case)
    redos = sorted(report.redo_analysis.definite)
    if not redos:
        return  # no redo edge to flip
    flipped = (Action.undo(redos[0]), Action.redo(redos[0]))
    order = PartialOrder(report.order.elements())
    for before, after in report.order.edges():
        if (before, after) == flipped:
            order.add_edge(after, before)
        else:
            order.add_edge(before, after)
    found = rules(log, specs, replace(report, order=order))
    assert "PLAN005" in found and "PLAN006" in found
