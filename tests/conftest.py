"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.markov.stg import RecoverySTG
from repro.scenarios.figure1 import Figure1Scenario, build_figure1
from repro.sim.workload import WorkloadConfig, WorkloadGenerator
from repro.workflow.data import DataStore
from repro.workflow.engine import Engine
from repro.workflow.log import SystemLog
from repro.workflow.spec import WorkflowSpec, workflow


@pytest.fixture
def figure1() -> Figure1Scenario:
    """The attacked Figure 1 system, not yet healed."""
    return build_figure1(attacked=True)


@pytest.fixture
def figure1_clean() -> Figure1Scenario:
    """The clean Figure 1 system (recovery oracle)."""
    return build_figure1(attacked=False)


@pytest.fixture
def paper_stg() -> RecoverySTG:
    """The paper's default CTMC: λ=1, μ1=15, ξ1=20, buffer 15."""
    return RecoverySTG.paper_default()


@pytest.fixture
def small_stg() -> RecoverySTG:
    """A small STG (buffer 4) for structural assertions."""
    return RecoverySTG.paper_default(buffer_size=4)


@pytest.fixture
def fresh_system():
    """An empty store/log/engine triple."""
    store = DataStore({"a": 1, "b": 2, "c": 3})
    log = SystemLog()
    return store, log, Engine(store, log)


def make_workload(seed: int = 0, **overrides):
    """Build a deterministic random workload (helper, not a fixture)."""
    defaults = dict(
        n_workflows=3, tasks_per_workflow=8, branch_probability=0.4
    )
    defaults.update(overrides)
    gen = WorkloadGenerator(WorkloadConfig(**defaults), random.Random(seed))
    return gen, gen.generate()


@pytest.fixture
def diamond_spec() -> WorkflowSpec:
    """A single diamond workflow used across dependency tests:

    ``a → b → {c | d} → e`` where ``b`` branches on the parity of its
    output.
    """
    return (
        workflow("diamond")
        .task("a", reads=["x"], writes=["ya"],
              compute=lambda d: {"ya": d["x"] + 1})
        .task("b", reads=["ya"], writes=["yb"],
              compute=lambda d: {"yb": d["ya"] * 3},
              choose=lambda d: "c" if d["yb"] % 2 == 0 else "d")
        .task("c", reads=["yb"], writes=["yc"],
              compute=lambda d: {"yc": d["yb"] + 10})
        .task("d", reads=["yb"], writes=["yd"],
              compute=lambda d: {"yd": d["yb"] + 20})
        .task("e", reads=["yc", "yd"], writes=["ye"],
              compute=lambda d: {"ye": d["yc"] + d["yd"]})
        .edge("a", "b").edge("b", "c").edge("b", "d")
        .edge("c", "e").edge("d", "e")
        .build()
    )


def reversed_t31_events():
    """One heal whose redos run against its published T3.1 edge: the
    scan decides ``wf/a#1`` and ``wf/b#1`` (a precedes b in the log),
    the heal publishes its order, undoes both, then redoes b before a.
    Every redo follows its own undo, so only the realized order is
    wrong."""
    from repro.obs.events import (
        HealFinished,
        HealStarted,
        OrderConstraint,
        RedoDecision,
        TaskRedone,
        TaskUndone,
        UndoDecision,
    )

    a, b = "wf/a#1", "wf/b#1"
    return [
        UndoDecision(1.0, uid=a, condition="T1.1"),
        UndoDecision(1.0, uid=b, condition="T1.3", via=(a,)),
        RedoDecision(1.0, uid=a, condition="T2.1"),
        RedoDecision(1.0, uid=b, condition="T2.1"),
        HealStarted(2.0, malicious=(a,)),
        OrderConstraint(2.0, rule="T3.3", before=f"undo({a})",
                        after=f"redo({a})"),
        OrderConstraint(2.0, rule="T3.3", before=f"undo({b})",
                        after=f"redo({b})"),
        OrderConstraint(2.0, rule="T3.1", before=f"redo({a})",
                        after=f"redo({b})"),
        TaskUndone(2.0, uid=b, reason="closure"),
        TaskUndone(2.0, uid=a, reason="closure"),
        TaskRedone(2.0, uid=b),
        TaskRedone(2.0, uid=a),
        HealFinished(3.0, undone=2, redone=2, kept=0, abandoned=0,
                     new_executions=0, duration=1.0),
    ]


def observed_heal(scenario):
    """Heal a scenario's reported damage on an active bus and audit it;
    returns the report (its ``order`` built) and the
    :class:`~repro.obs.events.OrderConstraint` events the heal
    published."""
    from repro.obs.events import EventBus, OrderConstraint

    bus = EventBus()
    edges = []
    bus.subscribe(edges.append, types=[OrderConstraint])
    malicious, forged_runs = scenario.reported()
    report = scenario.manager.heal(malicious, forged_runs=forged_runs,
                                   bus=bus)
    scenario.record_heal(report)
    return report, edges
