"""Property-based tests (hypothesis) on the core invariants.

Four families:

1. **Recovery soundness** — for arbitrary random workloads, attack
   placements and interleavings, the healed system is strictly correct
   (Definition 2) and its actions respect the Theorem 3 discipline.
2. **Partial orders** — topological orders of random DAG constraint sets
   are linear extensions; ``minimal`` picks unconstrained elements.
3. **CTMC numerics** — random birth-death generators: steady state
   solves πQ=0; uniformization agrees with the matrix exponential;
   cumulative times integrate to t.
4. **Data store** — version history behaves like an append-only list
   with faithful restores.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.actions import Action
from repro.markov.steady_state import steady_state
from repro.markov.transient import (
    cumulative_times,
    transient_probabilities,
    transient_probabilities_expm,
)
from repro.scenarios.generate import (
    birth_death,
    random_dag_edges,
    segmented_commits,
)
from repro.sim.recovery_sim import run_pipeline
from repro.sim.workload import WorkloadConfig, WorkloadGenerator
from repro.workflow.data import DataStore
from repro.workflow.log import RecordKind
from repro.workflow.precedence import PartialOrder


# --------------------------------------------------------------------------
# 1. Recovery soundness
# --------------------------------------------------------------------------


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_attacks=st.integers(min_value=1, max_value=4),
    branchiness=st.sampled_from([0.0, 0.3, 0.7]),
    loopiness=st.sampled_from([0.0, 0.4]),
    policy=st.sampled_from(["round_robin", "sequential", "random"]),
)
def test_healing_is_strictly_correct(seed, n_attacks, branchiness,
                                     loopiness, policy):
    gen = WorkloadGenerator(
        WorkloadConfig(
            n_workflows=3,
            tasks_per_workflow=9,
            branch_probability=branchiness,
            loop_probability=loopiness,
        ),
        random.Random(seed),
    )
    workload = gen.generate()
    campaign = gen.pick_attacks(workload, n_attacks=n_attacks)
    result = run_pipeline(workload, campaign, policy=policy, seed=seed)
    result.heal_now()
    assert result.audit.ok, (seed, result.audit.problems[:3])

    report = result.heal
    # Theorem 3 rule 3: undo(t) strictly before redo(t).
    seq = list(report.actions)
    for uid in set(report.undone) & set(report.redone):
        assert seq.index(Action.undo(uid)) < seq.index(Action.redo(uid))
    # Theorem 3 rule 1: redo order respects the log precedence.
    seqs = [result.log.get(u).seq for u in report.redone]
    assert seqs == sorted(seqs)
    # Rule T3.4 semantics: no recovery execution read a dirty version.
    dirty = set(report.dirty_versions)
    for rec in result.log.records(RecordKind.REDO):
        assert not any((n, v) in dirty for n, v in rec.reads.items())
    # Disjoint outcomes: an instance is kept XOR (undone/redone family).
    assert not (set(report.kept) & set(report.undone))
    assert set(report.abandoned) <= set(report.undone)
    assert set(report.redone) <= set(report.undone)
    # The report PARTITIONS the log: every committed instance is either
    # kept or undone; undone splits into redone and abandoned.
    all_uids = {r.uid for r in result.log.normal_records()}
    assert set(report.kept) | set(report.undone) == all_uids
    assert set(report.redone) | set(report.abandoned) == set(
        report.undone
    )
    assert not (set(report.redone) & set(report.abandoned))
    # New executions never collide with logged instances.
    assert not (set(report.new_executions) & all_uids)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_healing_idempotent_damage_free(seed):
    """Healing a *clean* system changes nothing (no undos, no redos)."""
    gen = WorkloadGenerator(
        WorkloadConfig(n_workflows=2, tasks_per_workflow=7,
                       branch_probability=0.5),
        random.Random(seed),
    )
    workload = gen.generate()
    result = run_pipeline(workload, None, seed=seed)
    result.heal_now()
    assert result.heal.undone == ()
    assert result.heal.redone == ()
    assert result.audit.ok


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=1000),
    interleavings=st.lists(
        st.integers(min_value=0, max_value=10_000), min_size=2,
        max_size=3,
    ),
)
def test_healed_state_invariant_under_interleaving(seed, interleavings):
    """With read-only shared objects, workflow results are independent
    of scheduling — so the *healed* final values must not depend on how
    the attacked execution was interleaved either.  (With writable
    shared objects even clean runs legitimately differ across
    interleavings, so no such invariance is expected there.)"""
    config = WorkloadConfig(
        n_workflows=3, tasks_per_workflow=6, branch_probability=0.3,
        shared_writes=False,
    )
    snapshots = []
    for policy_seed in interleavings:
        gen = WorkloadGenerator(config, random.Random(seed))
        wl = gen.generate()
        campaign = gen.pick_attacks(wl, n_attacks=2)
        result = run_pipeline(wl, campaign, policy="random",
                              seed=policy_seed)
        result.heal_now()
        assert result.audit.ok, result.audit.problems[:3]
        snapshots.append(result.store.snapshot())
    first = snapshots[0]
    for other in snapshots[1:]:
        assert other == first


# --------------------------------------------------------------------------
# 2. Partial orders
# --------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(random_dag_edges())
def test_topological_order_is_linear_extension(dag):
    nodes, edges = dag
    po = PartialOrder(elements=nodes)
    for a, b in edges:
        po.add_edge(a, b)
    order = po.topological_order()
    assert sorted(order) == sorted(nodes)
    pos = {v: i for i, v in enumerate(order)}
    for a, b in edges:
        assert pos[a] < pos[b]


@settings(max_examples=50, deadline=None)
@given(random_dag_edges())
def test_minimal_elements_have_no_internal_predecessors(dag):
    nodes, edges = dag
    po = PartialOrder(elements=nodes)
    for a, b in edges:
        po.add_edge(a, b)
    mins = po.minimal_elements()
    assert mins
    for m in mins:
        assert not any(b == m for _, b in edges)


# --------------------------------------------------------------------------
# 3. CTMC numerics
# --------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(birth_death())
def test_steady_state_solves_balance_equations(bd):
    chain, lams, mus = bd
    pi = steady_state(chain)
    assert pi.sum() == pytest.approx(1.0)
    assert (pi >= 0).all()
    assert np.abs(pi @ chain.generator).max() < 1e-8
    # Detailed balance for birth-death chains: π_i λ_i = π_{i+1} μ_i.
    for i in range(len(lams)):
        assert pi[i] * lams[i] == pytest.approx(pi[i + 1] * mus[i],
                                                rel=1e-6, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(birth_death(), st.floats(min_value=0.01, max_value=5.0))
def test_uniformization_matches_expm(bd, t):
    chain, __, __2 = bd
    pi0 = chain.point_distribution(0)
    uni = transient_probabilities(chain, pi0, t)
    exp = transient_probabilities_expm(chain, pi0, t)
    assert np.abs(uni - exp).max() < 1e-7


@settings(max_examples=25, deadline=None)
@given(birth_death(), st.floats(min_value=0.01, max_value=5.0))
def test_cumulative_times_sum_to_horizon(bd, t):
    chain, __, __2 = bd
    pi0 = chain.point_distribution(0)
    lt = cumulative_times(chain, pi0, t)
    assert lt.sum() == pytest.approx(t, rel=1e-9)
    assert (lt >= -1e-12).all()


# --------------------------------------------------------------------------
# 4. Segmented logs
# --------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(segmented_commits())
def test_segmented_merge_preserves_local_and_causal_order(scenario):
    from repro.workflow.segments import SegmentedLog
    from repro.workflow.task import TaskInstance

    nodes, plan = scenario
    slog = SegmentedLog(nodes)
    entries = []
    for i, (node, notify) in enumerate(plan):
        entry = slog.commit_on(
            node, TaskInstance(f"wf_{node}", f"t{i}", 1), {}, {},
            notify=notify,
        )
        entries.append((entry, notify))
    merged = slog.merge()
    assert len(merged) == len(plan)
    pos = {r.uid: i for i, r in enumerate(merged.normal_records())}
    # Per-node order preserved.
    for node in nodes:
        locals_ = [
            e for e, _n in entries if e.node == node
        ]
        positions = [pos[e.instance.uid] for e in locals_]
        assert positions == sorted(positions)
    # Witnessed causality preserved: a commit made after witnessing
    # another node's timestamp merges after that commit.
    for i, (entry, notify) in enumerate(entries):
        for later_entry, _n in entries[i + 1:]:
            if later_entry.node in notify:
                assert pos[entry.instance.uid] < pos[
                    later_entry.instance.uid
                ]


# --------------------------------------------------------------------------
# 5. Data store
# --------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1,
                max_size=30))
def test_version_history_is_append_only(values):
    store = DataStore({"x": 0})
    for i, v in enumerate(values):
        assert store.write("x", v, writer=f"t{i}") == i + 1
    history = store.history("x")
    assert [h.value for h in history] == [0] + values
    assert [h.number for h in history] == list(range(len(values) + 1))
    assert store.read("x") == values[-1]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=-100, max_value=100), min_size=2,
             max_size=15),
    st.data(),
)
def test_restore_reproduces_any_historical_value(values, data):
    store = DataStore({"x": values[0]})
    for v in values[1:]:
        store.write("x", v)
    target = data.draw(
        st.integers(min_value=0, max_value=len(values) - 1)
    )
    store.restore("x", target, writer="undo")
    assert store.read("x") == values[target]
