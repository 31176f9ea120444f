#!/usr/bin/env python3
"""What-if damage analysis: where should hardening budget go?

Theorem 1 answers what an attack *did* damage.  Before any attack, the
same dependence reasoning answers the designer's question: if task X
were compromised, how far could damage spread?  This example ranks the
supply-chain tasks by their static damage radius and then *verifies*
the top prediction operationally — by attacking that task and counting
what the healer actually has to repair.

Run:  python examples/critical_assets.py
"""

from repro.scenarios.supply_chain import (
    audit_spec,
    build_supply_chain,
    procurement_spec,
    sales_spec,
)
from repro.workflow.analysis import critical_tasks


def main() -> None:
    specs = [
        procurement_spec(),
        sales_spec("s0", 20),
        sales_spec("s1", 20),
        audit_spec(),
    ]
    total = sum(len(s.tasks) for s in specs)

    print(f"Static ranking over {total} tasks "
          "(damage radius = tasks at risk if compromised):\n")
    ranking = critical_tasks(specs, top=6)
    for i, radius in enumerate(ranking, 1):
        wf, task = radius.origin
        print(f"  {i}. {wf}/{task:<10} radius={radius.size:>2} "
              f"({radius.fraction_of(total):.0%} of the system, "
              f"{len(radius.control_amplified)} via branch flips)")

    top_wf, top_task = ranking[0].origin
    print(f"\nMost critical: {top_wf}/{top_task} — "
          "verifying operationally by attacking it...")

    scenario = build_supply_chain(n_sales=2)
    report = scenario.heal_now()
    touched = len(set(report.undone) | set(report.new_executions))
    print(f"  operational attack on procurement/check touched "
          f"{touched} task instances "
          f"({len(report.undone)} undone, "
          f"{len(report.new_executions)} new-path executions)")
    print(f"  static radius predicted ≥ {ranking[0].size} tasks at risk")
    print(f"  strictly correct after heal: {scenario.audit.ok}")

    assert scenario.audit.ok
    assert ranking[0].size >= 5  # the stock pipeline is the hot spot


if __name__ == "__main__":
    main()
