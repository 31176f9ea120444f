"""Extension I — repair cost as a function of detection latency.

The paper argues its recovery "does not depend on timely reporting from
the IDS" — correctness survives late detection (Section IV-D).  But
*cost* does not: the longer the IDS (or administrator) takes, the more
legitimate work reads the corrupted data and must be repaired.  This
bench quantifies that: one attack commits, then ``d`` further workflows
run before the heal; half of them touch the contaminated object.

Asserted shapes:

- dependency-based repair work grows with the delay (more victims);
- …but stays well below checkpoint rollback, which discards *all*
  post-attack work regardless of dependence;
- the untouched half of the late workflows is preserved at every delay
  (the point of dependency tracking);
- correctness is delay-independent: every heal audits strictly correct.
"""

from __future__ import annotations

from repro.core.axioms import audit_strict_correctness
from repro.core.healer import Healer
from repro.ids.attacks import AttackCampaign
from repro.report.tables import Table
from repro.sim.baselines import (
    checkpoint_rollback_cost,
    dependency_recovery_cost,
)
from repro.workflow.data import DataStore
from repro.workflow.engine import Engine
from repro.workflow.log import SystemLog
from repro.workflow.spec import workflow

DELAYS = [0, 2, 4, 8, 16]


def producer_spec():
    return (
        workflow("producer")
        .task("publish", reads=["seed"], writes=["feed"],
              compute=lambda d: {"feed": d["seed"] * 3})
        .build()
    )


def consumer_spec(i: int, infected: bool):
    """Even consumers read the contaminated feed; odd ones don't."""
    reads = ["feed"] if infected else [f"private_{i}"]
    return (
        workflow(f"c{i}")
        .task("work", reads=reads, writes=[f"out_{i}"],
              compute=lambda d: {
                  f"out_{i}": sum(int(v) for v in d.values()) + i
              })
        .build()
    )


def run_with_delay(delay: int):
    initial = {"seed": 7, "feed": 0}
    for i in range(max(DELAYS)):
        initial[f"private_{i}"] = i + 1
        initial[f"out_{i}"] = 0
    store, log = DataStore(initial), SystemLog()
    engine = Engine(store, log)
    campaign = AttackCampaign().corrupt_task("publish", feed=666_666)
    engine.run_to_completion(
        engine.new_run(producer_spec(), "producer"), tamper=campaign
    )
    for i in range(delay):
        engine.run_to_completion(
            engine.new_run(consumer_spec(i, infected=(i % 2 == 0)),
                           f"c{i}")
        )
    healer = Healer(store, log, engine.specs_by_instance)
    report = healer.heal(campaign.malicious_uids)
    audit = audit_strict_correctness(
        engine.specs_by_instance, initial, report.final_history,
        store.snapshot(),
    )
    dep = dependency_recovery_cost(report)
    ckpt = checkpoint_rollback_cost(log, campaign.malicious_uids)
    return report, audit, dep, ckpt


def test_detection_delay_cost(save_table, benchmark):
    rows = benchmark.pedantic(
        lambda: [
            (d, *run_with_delay(d)) for d in DELAYS
        ],
        rounds=1, iterations=1,
    )

    table = Table(
        "Extension I: repair cost vs detection delay "
        "(1 attack; half the late workflows touch the corrupted feed)",
        ["delay (workflows)", "dep undone", "dep preserved",
         "checkpoint undone", "checkpoint preserved", "audit"],
    )
    undone_counts = []
    for delay, report, audit, dep, ckpt in rows:
        assert audit.ok, audit.problems
        # Exactly the infected half (plus the attack) is repaired.
        expected_victims = 1 + (delay + 1) // 2
        assert dep.undone == expected_victims
        # The clean half survives untouched.
        assert dep.preserved == delay - (delay + 1) // 2
        # Checkpoint discards everything after the attack.
        assert ckpt.undone == 1 + delay
        assert dep.undone <= ckpt.undone
        undone_counts.append(dep.undone)
        table.add_row(delay, dep.undone, dep.preserved, ckpt.undone,
                      ckpt.preserved, "ok")
    # Cost grows with delay, but at half the checkpoint's slope.
    assert undone_counts == sorted(undone_counts)
    assert undone_counts[-1] < 1 + DELAYS[-1]
    save_table("detection_delay", table.render())
