"""Tests for the checkpoint and redo-everything baselines."""

import random

import pytest

from repro.sim.baselines import (
    checkpoint_rollback_cost,
    dependency_recovery_cost,
    full_redo_cost,
)
from repro.sim.recovery_sim import run_pipeline
from repro.sim.workload import WorkloadConfig, WorkloadGenerator


@pytest.fixture
def healed_run():
    g = WorkloadGenerator(
        WorkloadConfig(n_workflows=4, tasks_per_workflow=10,
                       branch_probability=0.4),
        random.Random(13),
    )
    wl = g.generate()
    campaign = g.pick_attacks(wl, n_attacks=1)
    result = run_pipeline(wl, campaign, seed=13)
    result.heal_now()
    assert result.audit.ok
    return result


class TestCheckpointBaseline:
    def test_best_checkpoint_before_first_malicious(self, healed_run):
        cost = checkpoint_rollback_cost(
            healed_run.log, healed_run.malicious_ground_truth
        )
        n = len(healed_run.log.normal_records())
        first_bad_seq = min(
            healed_run.log.get(u).seq
            for u in healed_run.malicious_ground_truth
        )
        assert cost.preserved == first_bad_seq
        assert cost.re_executed == n - first_bad_seq
        assert cost.undone == cost.re_executed

    def test_explicit_checkpoint(self, healed_run):
        cost = checkpoint_rollback_cost(
            healed_run.log, healed_run.malicious_ground_truth,
            checkpoint_seq=0,
        )
        assert cost.preserved == 0
        assert cost.undone == len(healed_run.log.normal_records())

    def test_no_malicious_preserves_everything(self, healed_run):
        cost = checkpoint_rollback_cost(healed_run.log, [])
        assert cost.re_executed == 0
        assert cost.preserved == len(healed_run.log.normal_records())


class TestFullRedoBaseline:
    def test_discards_all_work(self, healed_run):
        cost = full_redo_cost(healed_run.log)
        n = len(healed_run.log.normal_records())
        assert cost.preserved == 0
        assert cost.undone == cost.re_executed == n
        assert cost.total_recovery_work == 2 * n


class TestDependencyRecoveryCost:
    def test_matches_heal_report(self, healed_run):
        cost = dependency_recovery_cost(healed_run.heal)
        assert cost.preserved == len(healed_run.heal.kept)
        assert cost.undone == len(healed_run.heal.undone)
        assert cost.re_executed == len(healed_run.heal.redone) + len(
            healed_run.heal.new_executions
        )

    def test_dependency_recovery_preserves_more_work(self, healed_run):
        """The paper's headline qualitative claim: dependency-based
        recovery preserves work that checkpoints discard."""
        dep = dependency_recovery_cost(healed_run.heal)
        ckpt = checkpoint_rollback_cost(
            healed_run.log, healed_run.malicious_ground_truth
        )
        full = full_redo_cost(healed_run.log)
        assert dep.preserved >= ckpt.preserved
        assert dep.preserved > full.preserved
        assert dep.undone <= ckpt.undone

    def test_wasted_good_work(self, healed_run):
        damaged = len(healed_run.heal.undone)
        dep = dependency_recovery_cost(healed_run.heal)
        ckpt = checkpoint_rollback_cost(
            healed_run.log, healed_run.malicious_ground_truth
        )
        assert dep.wasted_good_work(damaged) == 0
        assert ckpt.wasted_good_work(damaged) >= 0
