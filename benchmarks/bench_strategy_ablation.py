"""Extension D — ablation of the Section III-D recovery strategies.

Strict correctness buys safety by *delaying normal tasks* whenever
damage analysis or repair is in flight; the multi-version strategy buys
concurrency with *storage*; full concurrency forfeits the termination
guarantee.  This bench quantifies the trade on both axes:

- **normal-task blocking** (analytic): under strict correctness, the
  fraction of time normal tasks are inadmissible equals 1 − P(NORMAL)
  of the steady state, swept over attack rates; risk strategies never
  block.
- **storage overhead** (empirical): versions a multi-version store
  must retain for the same workload — every version of the versioned
  store's history — relative to the live objects of a single-copy
  store.

The strategies themselves are an analytic table: strict correctness is
the one the system runs.
"""

from __future__ import annotations

import random

from repro.core.strategies import RecoveryStrategy
from repro.markov.metrics import category_probabilities
from repro.markov.steady_state import steady_state
from repro.markov.stg import RecoverySTG, StateCategory
from repro.report.tables import Table
from repro.sim.recovery_sim import run_pipeline
from repro.sim.workload import WorkloadConfig, WorkloadGenerator

LAMBDAS = [0.25, 0.5, 1.0, 2.0]


def blocking_analysis():
    """1 − P(NORMAL): the strict strategy's normal-task blocking."""
    blocked = {}
    for lam in LAMBDAS:
        stg = RecoverySTG.paper_default(arrival_rate=lam)
        pi = steady_state(stg.ctmc())
        blocked[lam] = 1.0 - category_probabilities(stg, pi)[
            StateCategory.NORMAL
        ]
    return blocked


def storage_analysis(seed=0):
    """Version-storage cost of the multi-version strategy."""
    gen = WorkloadGenerator(
        WorkloadConfig(n_workflows=3, tasks_per_workflow=12,
                       branch_probability=0.4),
        random.Random(seed),
    )
    workload = gen.generate()
    result = run_pipeline(workload, None, heal=False, seed=seed)

    # A multi-version store keeps every version a reader may have
    # pinned: the whole history the versioned store already records.
    store = result.store
    versions = sum(len(store.history(n)) for n in store.names())
    return len(list(store.names())), versions


def run_ablation():
    return blocking_analysis(), storage_analysis()


def test_strategy_ablation(save_table, benchmark):
    blocked, (objects, versions) = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1
    )

    # Strict blocking grows with the attack rate and hits ~100 % in
    # overload; risk strategies never block.
    vals = [blocked[lam] for lam in LAMBDAS]
    assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))
    assert blocked[0.25] < 0.1
    assert blocked[2.0] > 0.9

    # Multi-version storage strictly exceeds single-copy storage.
    assert versions > objects

    # Termination guarantees per strategy.
    assert RecoveryStrategy.STRICT.recovery_guaranteed_terminating
    assert RecoveryStrategy.RISK_NORMAL_ONLY.recovery_guaranteed_terminating
    assert not RecoveryStrategy.RISK_ALL.recovery_guaranteed_terminating

    table = Table(
        "Extension D: strategy ablation",
        ["strategy", "blocks normal tasks", "storage",
         "recovery terminates", "recovery stays correct"],
    )
    for strategy in RecoveryStrategy:
        if strategy is RecoveryStrategy.STRICT:
            block_desc = "; ".join(
                f"lam={lam}: {blocked[lam]:.0%}" for lam in LAMBDAS
            )
        else:
            block_desc = "never"
        storage = (
            f"{versions} versions vs {objects} objects"
            if strategy is RecoveryStrategy.RISK_NORMAL_ONLY
            else f"{objects} objects"
        )
        table.add_row(
            strategy.value,
            block_desc,
            storage,
            "yes" if strategy.recovery_guaranteed_terminating else "NO",
            "yes" if strategy.recovery_stays_correct else "NO",
        )
    save_table("strategy_ablation", table.render())
