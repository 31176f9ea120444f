"""Integration tests: the full pipeline (engine → IDS → analyzer →
healer → audit) over random workloads."""

import random

import pytest

from repro.core.actions import ActionKind
from repro.ids.detector import DetectorConfig
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
        assert result.healthy, result.audit.problems

    @pytest.mark.parametrize("policy", ["round_robin", "sequential",
                                        "random"])
    def test_all_policies_heal(self, policy):
        g, wl = make(42)
        campaign = g.pick_attacks(wl, n_attacks=2)
        result = run_pipeline(wl, campaign, policy=policy, seed=42)
        assert result.healthy, result.audit.problems

    def test_sequential_policy_matches_clean_oracle(self):
        """With sequential interleaving the healed store must equal the
        clean universe's store exactly."""
        for seed in range(6):
            g, wl = make(seed, branch_probability=0.7)
            campaign = g.pick_attacks(wl, n_attacks=3)
            healed = run_pipeline(wl, campaign, policy="sequential",
                                  seed=seed)
            clean = run_pipeline(wl, None, policy="sequential", seed=seed,
                                 heal=False)
            assert healed.store.snapshot() == clean.store.snapshot(), seed

    def test_no_attack_pipeline_keeps_everything(self):
        g, wl = make(3)
        result = run_pipeline(wl, None)
        assert result.healthy
        assert result.heal.undone == ()
        assert len(result.heal.kept) == len(result.log.normal_records())

    def test_heal_false_returns_attacked_state(self):
        # Several attacks so at least one lands on an executed path
        # (attacks on never-taken branch arms have no ground truth).
        g, wl = make(4)
        campaign = g.pick_attacks(wl, n_attacks=5)
        result = run_pipeline(wl, campaign, heal=False)
        assert result.heal is None and result.audit is None
        assert result.malicious_ground_truth


class TestDetectorIntegration:
    def test_missed_detections_covered_by_administrator(self):
        """detection_probability < 1: the admin reports the misses, so
        recovery input is complete and healing still succeeds."""
        g, wl = make(5)
        campaign = g.pick_attacks(wl, n_attacks=3)
        result = run_pipeline(
            wl,
            campaign,
            detector_config=DetectorConfig(detection_probability=0.3),
            seed=5,
        )
        assert result.healthy, result.audit.problems
        assert set(result.alert_uids) >= set(
            result.malicious_ground_truth
        ) & {u for u in result.alert_uids}
        # every ground-truth instance was ultimately reported
        assert set(result.malicious_ground_truth) <= set(result.alert_uids)

    def test_false_alarms_do_not_break_recovery(self):
        """Spurious alerts name innocent instances; recovery treats them
        as damage reports about correct tasks.  The healed system must
        still be strictly correct (redoing a correct task reproduces its
        values)."""
        g, wl = make(6)
        campaign = g.pick_attacks(wl, n_attacks=1)
        result = run_pipeline(
            wl,
            campaign,
            detector_config=DetectorConfig(false_alarm_rate=0.2),
            seed=6,
        )
        assert result.healthy, result.audit.problems

    def test_delayed_and_batched_detection_still_heals(self):
        """Detection delay, with the alerts released as one batch:
        recovery input arrives late but complete, and healing still
        succeeds."""
        g, wl = make(9)
        campaign = g.pick_attacks(wl, n_attacks=2)
        result = run_pipeline(
            wl,
            campaign,
            detector_config=DetectorConfig(mean_detection_delay=5.0),
            seed=9,
        )
        assert result.healthy, result.audit.problems
        assert set(result.malicious_ground_truth) <= set(
            result.alert_uids
        )

    def test_plan_and_heal_agree_on_definite_undos(self):
        g, wl = make(7)
        campaign = g.pick_attacks(wl, n_attacks=2)
        result = run_pipeline(wl, campaign, seed=7)
        plan_undos = {a.uid for a in result.plan.actions
                      if a.kind == ActionKind.UNDO}
        assert plan_undos <= set(result.heal.undone)
