"""Integration tests: attacked random workloads (engine → attack),
healed and audited through ``Scenario.heal_now``."""

import random

import pytest

from repro.sim.recovery_sim import run_pipeline
from repro.sim.workload import WorkloadConfig, WorkloadGenerator


def make(seed, **overrides):
    defaults = dict(n_workflows=3, tasks_per_workflow=10,
                    branch_probability=0.5)
    defaults.update(overrides)
    g = WorkloadGenerator(WorkloadConfig(**defaults), random.Random(seed))
    return g, g.generate()


class TestHealing:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_workloads_heal_strictly_correct(self, seed):
        g, wl = make(seed)
        campaign = g.pick_attacks(wl, n_attacks=2)
        result = run_pipeline(wl, campaign, seed=seed)
        result.heal_now()
        assert result.audit.ok, result.audit.problems

    @pytest.mark.parametrize("policy", ["round_robin", "sequential",
                                        "random"])
    def test_all_policies_heal(self, policy):
        g, wl = make(42)
        campaign = g.pick_attacks(wl, n_attacks=2)
        result = run_pipeline(wl, campaign, policy=policy, seed=42)
        result.heal_now()
        assert result.audit.ok, result.audit.problems

    def test_sequential_policy_matches_clean_oracle(self):
        """With sequential interleaving the healed store must equal the
        clean universe's store exactly."""
        for seed in range(6):
            g, wl = make(seed, branch_probability=0.7)
            campaign = g.pick_attacks(wl, n_attacks=3)
            healed = run_pipeline(wl, campaign, policy="sequential",
                                  seed=seed)
            healed.heal_now()
            clean = run_pipeline(wl, None, policy="sequential", seed=seed)
            assert healed.store.snapshot() == clean.store.snapshot(), seed

    def test_no_attack_pipeline_keeps_everything(self):
        g, wl = make(3)
        result = run_pipeline(wl, None)
        result.heal_now()
        assert result.audit.ok
        assert result.heal.undone == ()
        assert len(result.heal.kept) == len(result.log.normal_records())

    def test_heal_false_returns_attacked_state(self):
        """Until ``heal_now``, the pipeline is the attacked system."""
        # Several attacks so at least one lands on an executed path
        # (attacks on never-taken branch arms have no ground truth).
        g, wl = make(4)
        campaign = g.pick_attacks(wl, n_attacks=5)
        result = run_pipeline(wl, campaign)
        assert result.heal is None and result.audit is None
        assert result.malicious_ground_truth
        assert result.reported() == (result.malicious_ground_truth, ())


class TestDetectorIntegration:
    """The reported damage (what the IDS alerts name) drives both the
    heal's Theorem 1 decisions and what it undoes."""

    def test_plan_and_heal_agree_on_definite_undos(self):
        g, wl = make(7)
        campaign = g.pick_attacks(wl, n_attacks=2)
        result = run_pipeline(wl, campaign, seed=7)
        report = result.heal_now()
        assert report.undo_analysis.definite
        assert report.undo_analysis.definite <= set(report.undone)
