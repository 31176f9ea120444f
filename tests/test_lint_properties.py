"""Property tests: the independent plan verifier vs the real analyzer.

Two directions, both over random workflow systems and attack sets
(drawn through the shared strategy library in
:mod:`repro.scenarios.generate`):

- **soundness of the pair**: every plan the analyzer produces, and the
  Theorem 3 order a heal of its alerts builds, is accepted by the
  verifier (two independent derivations of Theorems 1-3 agree on
  arbitrary inputs);
- **sensitivity**: seeded mutations of those same plans and orders
  (dropped undo, extra redo, reversed Theorem 3 edge) are always
  rejected.
"""

from hypothesis import HealthCheck, given, settings

from repro.core.actions import Action
from repro.core.partial_orders import recovery_partial_order
from repro.lint import verify_order, verify_plan
from repro.scenarios.generate import CASE, mutate_plan, random_attacked_case
from repro.workflow.dependency import DependencyAnalyzer
from repro.workflow.precedence import PartialOrder


def heal_order(log, specs, plan):
    """The order a heal of the plan's alerts alone builds: the batch is
    the plan, so its closure and definite redos are the plan's."""
    return recovery_partial_order(
        DependencyAnalyzer(log, specs), plan.undo_analysis.definite,
        plan.redo_analysis.definite)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**CASE)
def test_verifier_accepts_every_analyzer_plan(seed, n_attacks,
                                              branchiness, loopiness):
    case = random_attacked_case(seed, n_attacks, branchiness, loopiness)
    if case is None:
        return
    log, specs, plan = case
    diags = verify_plan(log, specs, plan)
    diags += verify_order(log, specs, heal_order(log, specs, plan),
                          plan.alert_uids)
    assert diags == [], [d.render() for d in diags[:5]]


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**CASE)
def test_verifier_rejects_dropped_undo(seed, n_attacks, branchiness,
                                       loopiness):
    case = random_attacked_case(seed, n_attacks, branchiness, loopiness)
    if case is None:
        return
    log, specs, plan = case
    mutated = mutate_plan(plan, "drop-undo", log)
    if mutated is None:
        return  # nothing to drop
    rules = {d.rule for d in verify_plan(log, specs, mutated)}
    assert "PLAN001" in rules


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**CASE)
def test_verifier_rejects_extra_redo(seed, n_attacks, branchiness,
                                     loopiness):
    case = random_attacked_case(seed, n_attacks, branchiness, loopiness)
    if case is None:
        return
    log, specs, plan = case
    mutated = mutate_plan(plan, "extra-redo", log)
    if mutated is None:
        return  # everything was infected; no clean instance to inject
    rules = {d.rule for d in verify_plan(log, specs, mutated)}
    assert "PLAN004" in rules


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**CASE)
def test_verifier_rejects_reversed_t33_edge(seed, n_attacks,
                                            branchiness, loopiness):
    case = random_attacked_case(seed, n_attacks, branchiness, loopiness)
    if case is None:
        return
    log, specs, plan = case
    redos = sorted(plan.redo_analysis.definite)
    if not redos:
        return  # no redo edge to flip
    flipped = (Action.undo(redos[0]), Action.redo(redos[0]))
    honest = heal_order(log, specs, plan)
    order = PartialOrder(honest.elements())
    for before, after in honest.edges():
        if (before, after) == flipped:
            order.add_edge(after, before)
        else:
            order.add_edge(before, after)
    rules = {d.rule for d in verify_order(log, specs, order,
                                          plan.alert_uids)}
    assert "PLAN005" in rules and "PLAN006" in rules
