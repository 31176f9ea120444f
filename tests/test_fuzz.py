"""The oracle-checked fuzzing harness.

Three concerns:

- **clean runs**: generated campaigns (single-tenant episodes and
  fleet campaigns alike) pass the composite oracle — the acceptance
  bar the CI smoke job enforces at larger scale;
- **fault injection**: a mutated analyzer is *caught* by the
  plan-verifier oracle, and the counterexample shrinks to a small
  campaign that is persisted as a replayable corpus file;
- **mechanics**: determinism of outcomes, shrinking semantics, and
  the report's machine-parseable summary line.
"""

import pytest

from repro.errors import GenerationError
from repro.scenarios.fuzz import (
    fuzz,
    inject_mutation,
    load_campaign,
    run_campaign,
    shrink_campaign,
)
from repro.scenarios.generate import (
    AttackStep,
    CampaignSpec,
    SpecShape,
    generate_campaign,
)


# --------------------------------------------------------------------------
# Clean runs
# --------------------------------------------------------------------------


@pytest.mark.parametrize("index", range(8))
def test_generated_campaigns_pass_the_oracle(index):
    campaign = generate_campaign(0, index=index)
    outcome = run_campaign(campaign)
    assert outcome.ok, [v.render() for v in outcome.violations]


def test_campaign_outcomes_are_deterministic():
    campaign = generate_campaign(3, index=1)
    first = run_campaign(campaign)
    second = run_campaign(campaign)
    assert first.plans_checked == second.plans_checked
    assert first.heals == second.heals
    assert first.alerts == second.alerts


def test_fleet_campaign_runs_through_the_control_plane():
    campaign = generate_campaign(0, index=7)  # every 8th is fleet
    assert campaign.tenants > 1
    outcome = run_campaign(campaign)
    assert outcome.ok, [v.render() for v in outcome.violations]
    assert outcome.fleet is not None
    assert outcome.verdict


def test_fleet_campaign_rejects_plan_mutation():
    campaign = generate_campaign(0, index=7)
    with pytest.raises(GenerationError):
        run_campaign(campaign, mutation="drop-undo")


def test_small_fuzz_run_is_clean(tmp_path):
    report = fuzz(seed=0, max_campaigns=12,
                  corpus_dir=str(tmp_path / "corpus"))
    assert report.campaigns == 12
    assert report.violations == 0
    assert report.plans_checked > 0
    assert report.heals > 0
    assert report.corpus_files == []
    line = report.summary()
    assert "violations=0" in line and "campaigns=12" in line


# --------------------------------------------------------------------------
# Fault injection: the harness must catch a broken analyzer
# --------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["drop-undo", "extra-redo",
                                  "reverse-edge"])
def test_injected_mutation_is_caught(kind):
    campaign = generate_campaign(1, index=0)
    outcome = run_campaign(campaign, mutation=kind)
    assert outcome.mutated_plans > 0
    assert any(v.oracle == "plan-verifier" for v in outcome.violations)


def test_injected_mutation_shrinks_to_corpus_file(tmp_path):
    corpus = tmp_path / "corpus"
    report = fuzz(seed=0, max_campaigns=3, inject="drop-undo",
                  corpus_dir=str(corpus))
    assert report.caught == 3
    assert report.missed == 0
    assert report.violations == 3
    assert report.corpus_files
    # The shrunk counterexample is small and itself replayable.
    shrunk = load_campaign(report.corpus_files[0])
    assert shrunk.tenants == 1
    assert len(shrunk.steps) <= 2
    assert shrunk.shape.tasks_per_workflow <= 4
    replayed = run_campaign(shrunk, mutation="drop-undo")
    assert not replayed.ok
    # Without the fault, the same campaign is clean.
    assert run_campaign(shrunk).ok


def test_inject_mutation_restores_the_analyzer():
    from repro.core.analyzer import RecoveryAnalyzer

    original = RecoveryAnalyzer.analyze
    with inject_mutation("drop-undo"):
        assert RecoveryAnalyzer.analyze is not original
    assert RecoveryAnalyzer.analyze is original
    with pytest.raises(GenerationError):
        with inject_mutation("unknown-kind"):
            pass  # pragma: no cover
    assert RecoveryAnalyzer.analyze is original


def test_fuzz_rejects_unknown_mutation():
    with pytest.raises(GenerationError):
        fuzz(max_campaigns=1, inject="meltdown")


# --------------------------------------------------------------------------
# Shrinking
# --------------------------------------------------------------------------


def test_shrink_reaches_a_fixpoint_on_always_failing():
    campaign = CampaignSpec(
        seed=5,
        shape=SpecShape(n_workflows=3, tasks_per_workflow=7,
                        branch_probability=0.7, loop_probability=0.4,
                        n_shared_objects=3),
        stages=(
            (AttackStep(kind="corrupt", target=4, delta=9001),
             AttackStep(kind="false-alarm", target=1, count=3)),
            (AttackStep(kind="corrupt", target=2, delta=4242,
                        trigger="scan"),),
        ),
        tenants=1,
    )
    shrunk = shrink_campaign(campaign, lambda c: True)
    assert shrunk.shape.n_workflows == 1
    assert len(shrunk.stages) == 1
    assert len(shrunk.steps) == 1
    # Fully minimized: no further candidate fails either.
    again = shrink_campaign(shrunk, lambda c: True)
    assert again == shrunk


def test_shrink_preserves_the_failure_predicate():
    campaign = generate_campaign(2, index=0)
    wanted = campaign.steps[0].kind
    shrunk = shrink_campaign(
        campaign,
        lambda c: any(s.kind == wanted for s in c.steps),
    )
    assert any(s.kind == wanted for s in shrunk.steps)


def test_shrink_keeps_original_when_nothing_smaller_fails():
    campaign = generate_campaign(2, index=1)
    assert shrink_campaign(campaign, lambda c: c == campaign) == campaign


# --------------------------------------------------------------------------
# Budget plumbing
# --------------------------------------------------------------------------


def test_budget_mode_stops_on_time(tmp_path):
    report = fuzz(seed=1, budget_seconds=2.0,
                  corpus_dir=str(tmp_path / "corpus"))
    assert report.campaigns >= 1
    assert report.violations == 0
    assert report.elapsed <= 30.0  # sanity: budget was honoured


def test_progress_callback_fires():
    seen = []
    fuzz(seed=0, max_campaigns=25, multi_tenant_every=0,
         progress=seen.append)
    assert seen and seen[-1].campaigns == 25
