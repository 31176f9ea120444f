"""Tests for loop segments in the random workload generator."""

import random

import pytest

from repro.sim.recovery_sim import run_pipeline
from repro.sim.workload import WorkloadConfig, WorkloadGenerator


def gen(seed=0, **overrides):
    defaults = dict(n_workflows=2, tasks_per_workflow=10,
                    branch_probability=0.0, loop_probability=1.0)
    defaults.update(overrides)
    return WorkloadGenerator(WorkloadConfig(**defaults),
                             random.Random(seed))


class TestLoopGeneration:
    def test_loops_generated(self):
        wl = gen(1).generate()
        assert any(not spec.is_acyclic() for spec in wl.specs)

    def test_loop_body_is_self_branching(self):
        wl = gen(2).generate()
        for spec in wl.specs:
            for task_id in spec.branch_nodes:
                succs = set(spec.successors(task_id))
                if task_id in succs:  # a loop body
                    assert len(succs) == 2  # itself + exit

    def test_no_loops_when_probability_zero(self):
        wl = gen(3, loop_probability=0.0).generate()
        assert all(spec.is_acyclic() for spec in wl.specs)

    def test_specs_execute_with_repeated_instances(self):
        wl = gen(4).generate()
        result = run_pipeline(wl, None, seed=4)
        numbers = [
            r.instance.number for r in result.log.normal_records()
        ]
        assert max(numbers) >= 2  # some task actually looped


class TestLoopHealing:
    @pytest.mark.parametrize("seed", range(6))
    def test_attacked_cyclic_workloads_heal(self, seed):
        g = gen(seed, n_workflows=3, branch_probability=0.3,
                loop_probability=0.5)
        wl = g.generate()
        campaign = g.pick_attacks(wl, n_attacks=2)
        result = run_pipeline(wl, campaign, seed=seed)
        result.heal_now()
        assert result.audit.ok, result.audit.problems[:3]

    def test_loop_count_change_during_heal(self):
        """Find a seed where recovery changes the iteration count —
        abandoned or newly executed body instances — and verify it."""
        observed = False
        for seed in range(25):
            g = gen(seed, n_workflows=2, loop_probability=1.0)
            wl = g.generate()
            campaign = g.pick_attacks(wl, n_attacks=2)
            result = run_pipeline(wl, campaign, seed=seed)
            result.heal_now()
            assert result.audit.ok, (seed, result.audit.problems[:3])
            body_changed = any(
                "#"  in u and int(u.split("#")[1]) >= 2
                for u in (tuple(result.heal.new_executions)
                          + tuple(result.heal.abandoned))
            )
            if body_changed:
                observed = True
                break
        assert observed, "no seed produced a loop-count change"
