"""Tests for the random workload generator."""

import random

import pytest

from repro.sim.workload import WorkloadConfig, WorkloadGenerator


def gen(seed=0, **overrides):
    defaults = dict(n_workflows=3, tasks_per_workflow=8,
                    branch_probability=0.5)
    defaults.update(overrides)
    return WorkloadGenerator(WorkloadConfig(**defaults), random.Random(seed))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(n_workflows=0)
        with pytest.raises(ValueError):
            WorkloadConfig(tasks_per_workflow=1)
        with pytest.raises(ValueError):
            WorkloadConfig(branch_probability=1.5)


class TestGeneration:
    def test_specs_are_valid_and_counted(self):
        wl = gen().generate()
        assert len(wl.specs) == 3
        for spec in wl.specs:
            assert spec.start  # validated by construction
            assert spec.ends

    def test_deterministic_per_seed(self):
        wl1, wl2 = gen(5).generate(), gen(5).generate()
        assert [s.workflow_id for s in wl1.specs] == [
            s.workflow_id for s in wl2.specs
        ]
        assert [sorted(s.tasks) for s in wl1.specs] == [
            sorted(s.tasks) for s in wl2.specs
        ]
        assert wl1.initial_data == wl2.initial_data

    def test_different_seeds_compute_differently(self):
        """Even when the graph shapes coincide, the generated task
        arithmetic must differ between seeds."""
        from repro.sim.recovery_sim import run_pipeline

        s1 = run_pipeline(gen(1).generate(), None).store
        s2 = run_pipeline(gen(2).generate(), None).store
        assert s1.snapshot() != s2.snapshot()

    def test_every_read_object_has_initial_value(self):
        wl = gen(3).generate()
        for spec in wl.specs:
            for task in spec.tasks.values():
                for name in task.reads:
                    assert name in wl.initial_data, name

    def test_branching_present_with_high_probability_config(self):
        wl = gen(4, branch_probability=1.0,
                 tasks_per_workflow=12).generate()
        assert any(spec.branch_nodes for spec in wl.specs)

    def test_no_branches_when_probability_zero(self):
        wl = gen(5, branch_probability=0.0).generate()
        assert all(not spec.branch_nodes for spec in wl.specs)

    def test_shared_objects_single_writer(self):
        """Each shared object is written by at most one workflow."""
        wl = gen(6, n_shared_objects=4).generate()
        writers = {}
        for spec in wl.specs:
            for task in spec.tasks.values():
                for name in task.writes:
                    if name.startswith("s"):
                        writers.setdefault(name, set()).add(
                            spec.workflow_id
                        )
        for name, wfs in writers.items():
            assert len(wfs) == 1, (name, wfs)

class TestAttackSelection:
    def test_campaign_targets_requested_count(self):
        g = gen(7)
        wl = g.generate()
        campaign = g.pick_attacks(wl, n_attacks=3)
        assert len(campaign) == 3

    def test_attacks_actually_corrupt(self):
        from repro.sim.recovery_sim import run_pipeline

        g = gen(8)
        wl = g.generate()
        campaign = g.pick_attacks(wl, n_attacks=2)
        attacked = run_pipeline(wl, campaign, seed=8)
        clean = run_pipeline(wl, None, seed=8)
        assert attacked.malicious_ground_truth
        assert attacked.store.snapshot() != clean.store.snapshot()
