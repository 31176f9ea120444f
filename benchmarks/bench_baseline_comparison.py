"""Extension B — dependency-based recovery vs the baselines it replaces.

The paper's introduction argues checkpoints "lose all work after the
rollback point, malicious and normal alike".  This bench quantifies
that: random workloads are attacked at increasing damage fractions and
repaired by (1) the dependency-based healer, (2) best-case checkpoint
rollback, (3) redo-everything.  For each strategy we count task
executions preserved, re-executed and undone.

Expected shape: the healer preserves the most work at every damage
level; its advantage shrinks as the damage fraction grows (with
everything corrupted, every strategy must redo everything).
"""

from __future__ import annotations

import random

from repro.report.tables import Table
from repro.sim.baselines import (
    checkpoint_rollback_cost,
    dependency_recovery_cost,
    full_redo_cost,
)
from repro.sim.recovery_sim import run_pipeline
from repro.sim.workload import WorkloadConfig, WorkloadGenerator

ATTACK_COUNTS = [1, 2, 4, 8]
SEEDS = range(5)


def compare_strategies():
    rows = []
    for n_attacks in ATTACK_COUNTS:
        totals = {
            "dependency": [0, 0, 0],
            "checkpoint": [0, 0, 0],
            "redo-all": [0, 0, 0],
        }
        runs = 0
        for seed in SEEDS:
            gen = WorkloadGenerator(
                WorkloadConfig(n_workflows=4, tasks_per_workflow=12,
                               branch_probability=0.4),
                random.Random(seed),
            )
            workload = gen.generate()
            campaign = gen.pick_attacks(workload, n_attacks=n_attacks)
            result = run_pipeline(workload, campaign, seed=seed)
            report = result.heal_now()
            assert result.audit.ok, result.audit.problems
            dep = dependency_recovery_cost(report)
            ckpt = checkpoint_rollback_cost(
                result.log, result.malicious_ground_truth
            )
            full = full_redo_cost(result.log)
            for key, cost in (
                ("dependency", dep), ("checkpoint", ckpt),
                ("redo-all", full),
            ):
                totals[key][0] += cost.preserved
                totals[key][1] += cost.re_executed
                totals[key][2] += cost.undone
            runs += 1
        rows.append((n_attacks, runs, totals))
    return rows


def test_baseline_comparison(save_table, benchmark):
    rows = benchmark.pedantic(compare_strategies, rounds=1, iterations=1)

    table = Table(
        "Extension B: recovery cost by strategy "
        "(totals over 5 seeds, 4 workflows x 12 tasks)",
        ["attacks", "strategy", "preserved", "re-executed", "undone"],
    )
    for n_attacks, runs, totals in rows:
        dep, ckpt, full = (
            totals["dependency"], totals["checkpoint"], totals["redo-all"]
        )
        # The headline claim: dependency recovery preserves the most.
        assert dep[0] >= ckpt[0]
        assert dep[0] > full[0]
        # And undoes no more than the checkpoint discards.
        assert dep[2] <= ckpt[2]
        # Redo-everything preserves nothing.
        assert full[0] == 0
        for name, t in (("dependency", dep), ("checkpoint", ckpt),
                        ("redo-all", full)):
            table.add_row(n_attacks, name, t[0], t[1], t[2])

    # Advantage shrinks with damage: the healer's preserved fraction is
    # non-increasing in the attack count (allowing sampling noise).
    preserved = [t["dependency"][0] for _, __, t in rows]
    assert preserved[0] >= preserved[-1]
    save_table("baseline_comparison", table.render())
