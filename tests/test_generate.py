"""The campaign generator: determinism, serialization, lint-cleanliness.

The fuzzing harness is only as trustworthy as its generator, so these
tests pin down the three properties the corpus format and the CI smoke
job rely on:

- generation is a pure function of the seed (bit-identical workloads
  and campaigns across calls and processes);
- every campaign survives a JSON round trip unchanged (corpus files
  are campaigns);
- generated workflow specs are structurally valid — the spec linter
  reports no ERROR-level finding on them.
"""

import pytest

from repro.errors import GenerationError
from repro.lint import Severity, lint_specs
from repro.scenarios.generate import (
    AttackStep,
    CampaignSpec,
    SpecShape,
    generate_campaign,
    generate_workload,
    random_attacked_case,
    stable_seed,
)


def _structure(workload):
    """A workload's comparable skeleton (task bodies are closures)."""
    return [
        (
            spec.workflow_id,
            sorted(spec.tasks),
            sorted(spec.edges),
            {
                tid: (tuple(task.reads), tuple(task.writes))
                for tid, task in spec.tasks.items()
            },
        )
        for spec in workload.specs
    ], dict(workload.initial_data)


# --------------------------------------------------------------------------
# Determinism
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 7, 4242])
def test_workload_generation_is_bit_identical(seed):
    shape = SpecShape(n_workflows=3, tasks_per_workflow=7,
                      branch_probability=0.3, loop_probability=0.4)
    first = generate_workload(seed, shape, prefix="G")
    second = generate_workload(seed, shape, prefix="G")
    assert _structure(first) == _structure(second)


def test_workload_generation_depends_on_seed():
    shape = SpecShape(n_workflows=2, tasks_per_workflow=6)
    assert _structure(generate_workload(1, shape)) != _structure(
        generate_workload(2, shape)
    )


@pytest.mark.parametrize("index", range(12))
def test_campaign_stream_is_deterministic(index):
    assert generate_campaign(5, index=index) == generate_campaign(
        5, index=index
    )


def test_stable_seed_is_stable_and_sensitive():
    assert stable_seed(3, 11) == stable_seed(3, 11)
    assert stable_seed(3, 11) != stable_seed(11, 3)
    assert 0 <= stable_seed(2**40, -17) < 2**31


def test_attacked_case_plans_are_reproducible():
    first = random_attacked_case(42, n_attacks=2)
    second = random_attacked_case(42, n_attacks=2)
    assert first is not None and second is not None
    assert first[1] == second[1]
    assert first[2].definite == second[2].definite
    assert first[3].definite == second[3].definite


# --------------------------------------------------------------------------
# Serialization (the corpus format)
# --------------------------------------------------------------------------


@pytest.mark.parametrize("index", range(10))
def test_campaign_json_round_trip(index):
    campaign = generate_campaign(9, index=index)
    assert CampaignSpec.from_json(campaign.to_json()) == campaign


def test_campaign_round_trip_ignores_unknown_keys():
    """Corpus files carry a ``found_by`` annotation; loading must not
    choke on it (or on any future sibling key)."""
    campaign = generate_campaign(9, index=3)
    doc = campaign.to_dict()
    doc["found_by"] = {"oracle": "plan-verifier"}
    assert CampaignSpec.from_dict(doc) == campaign


def test_campaign_rejects_bad_documents():
    with pytest.raises(GenerationError):
        CampaignSpec.from_json("not json {")
    with pytest.raises(GenerationError):
        CampaignSpec.from_json("[]")
    with pytest.raises(GenerationError):
        CampaignSpec.from_dict({"format": "campaign/v99", "seed": 1})
    with pytest.raises(GenerationError):
        CampaignSpec.from_dict({})  # missing seed


def test_attack_step_validation():
    with pytest.raises(GenerationError):
        AttackStep(kind="meltdown")
    with pytest.raises(GenerationError):
        AttackStep(trigger="never")
    with pytest.raises(GenerationError):
        AttackStep(kind="false-alarm", count=0)
    with pytest.raises(GenerationError):
        CampaignSpec(seed=1, stages=())
    with pytest.raises(GenerationError):
        CampaignSpec(seed=1, tenants=0)


def test_calibrated_property_matches_ctmc_assumptions():
    quiet = CampaignSpec(seed=1, stages=((AttackStep(),),))
    assert quiet.calibrated
    flood = CampaignSpec(
        seed=1,
        stages=((AttackStep(kind="false-alarm", count=3),),),
    )
    assert not flood.calibrated
    timed = CampaignSpec(
        seed=1, stages=((AttackStep(trigger="scan"),),)
    )
    assert not timed.calibrated
    fleet = CampaignSpec(seed=1, tenants=3)
    assert not fleet.calibrated


# --------------------------------------------------------------------------
# Lint-cleanliness
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 3, 17, 99])
def test_generated_specs_have_no_lint_errors(seed):
    shape = SpecShape(n_workflows=3, tasks_per_workflow=8,
                      branch_probability=0.5, loop_probability=0.4)
    workload = generate_workload(seed, shape)
    errors = [
        d for d in lint_specs(workload.specs)
        if d.severity is Severity.ERROR
    ]
    assert errors == [], [d.render() for d in errors[:5]]


# --------------------------------------------------------------------------
# Hypothesis strategies (skipped when hypothesis is absent)
# --------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")


def test_campaign_specs_strategy_yields_valid_campaigns():
    from hypothesis import given, settings

    from repro.scenarios.generate import campaign_specs

    @settings(max_examples=30, deadline=None)
    @given(campaign_specs())
    def inner(campaign):
        assert isinstance(campaign, CampaignSpec)
        assert CampaignSpec.from_json(campaign.to_json()) == campaign
        assert campaign.steps

    inner()
