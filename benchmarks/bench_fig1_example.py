"""Figure 1 — the motivating example as a measurable benchmark.

Reproduces the worked example exactly (log ``L1 = t1 t7 t2 t8 t3 t4 t9
t6 t10``, malicious ``t1``), measures the healing time, and prints the
per-task recovery disposition matching Section III's narrative.
"""

from __future__ import annotations

from repro.report.tables import Table
from repro.scenarios.figure1 import Figure1Scenario, build_figure1


def heal_figure1():
    scenario = build_figure1(attacked=True)
    scenario.heal_now()
    return scenario


def test_fig1_motivating_example(save_table, benchmark):
    scenario = benchmark.pedantic(heal_figure1, rounds=3, iterations=1)
    report = scenario.heal

    T = Figure1Scenario.task_ids
    assert T(report.undone) == scenario.EXPECTED_UNDONE
    assert T(report.redone) == scenario.EXPECTED_REDONE
    assert T(report.abandoned) == scenario.EXPECTED_ABANDONED
    assert T(report.new_executions) == scenario.EXPECTED_NEW
    assert T(report.kept) == scenario.EXPECTED_KEPT
    assert scenario.audit.ok, scenario.audit.problems

    disposition = {}
    for uid in report.undone:
        disposition[uid] = "undo"
    for uid in report.redone:
        disposition[uid] = disposition.get(uid, "") + "+redo"
    for uid in report.abandoned:
        disposition[uid] = "undo (not redone)"
    for uid in report.new_executions:
        disposition[uid] = "new execution"
    for uid in report.kept:
        disposition[uid] = "kept"

    table = Table(
        "Figure 1: recovery disposition per task instance "
        "(malicious: wf1/t1#1)",
        ["instance", "disposition"],
    )
    for r in scenario.log.normal_records():
        table.add_row(r.uid, disposition.get(r.uid, "?"))
    for uid in report.new_executions:
        table.add_row(uid, "new execution")
    save_table("fig1_example", table.render())
