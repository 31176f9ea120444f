"""Property tests: the independent plan verifier vs the real analyzer.

Two directions, both over random workflow systems and attack sets
(drawn through the shared strategy library in
:mod:`repro.scenarios.generate`):

- **soundness of the pair**: every plan the analyzer produces is
  accepted by the verifier (two independent derivations of Theorems
  1-3 agree on arbitrary inputs);
- **sensitivity**: seeded mutations of those same plans (dropped undo,
  extra redo, reversed Theorem 3 edge) are always rejected.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings

from repro.core.actions import Action
from repro.lint import verify_plan
from repro.scenarios.generate import CASE, mutate_plan, random_attacked_case
from repro.workflow.precedence import PartialOrder


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
    order = PartialOrder(plan.order.elements())
    for before, after in plan.order.edges():
        if (before, after) == flipped:
            order.add_edge(after, before)
        else:
            order.add_edge(before, after)
    mutated = replace(plan, order_of=lambda: order)
    rules = {d.rule for d in verify_plan(log, specs, mutated)}
    assert "PLAN005" in rules and "PLAN006" in rules
