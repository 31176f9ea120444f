#!/usr/bin/env python3
"""Quickstart: define a workflow, attack it, report, heal, verify.

Walks through the full public API in one small scenario:

1. specify a workflow (tasks with read/write sets + a branch);
2. execute it under an attack that forges one task's output;
3. report the malicious instance (the attack's ground truth stands in
   for the IDS);
4. analyze the damage (Theorems 1–2) and inspect the plan;
5. heal (undo/redo with candidate resolution);
6. audit strict correctness (Definition 2).

Run:  python examples/quickstart.py
"""

from repro import (
    AttackCampaign,
    DataStore,
    Engine,
    Healer,
    RecoveryAnalyzer,
    SystemLog,
    audit_strict_correctness,
    workflow,
)


def main() -> None:
    # 1. A tiny order-processing workflow:
    #    price → discount? → (apply | skip) → invoice
    spec = (
        workflow("order")
        .task("price", reads=["qty", "unit"], writes=["total"],
              compute=lambda d: {"total": d["qty"] * d["unit"]})
        .task("check", reads=["total"], writes=["eligible"],
              compute=lambda d: {"eligible": 1 if d["total"] >= 100 else 0},
              choose=lambda d: "apply" if d["eligible"] else "skip")
        .task("apply", reads=["total"], writes=["payable"],
              compute=lambda d: {"payable": int(d["total"] * 0.9)})
        .task("skip", reads=["total"], writes=["payable"],
              compute=lambda d: {"payable": d["total"]})
        .task("invoice", reads=["payable"], writes=["billed"],
              compute=lambda d: {"billed": d["payable"]})
        .edge("price", "check").edge("check", "apply")
        .edge("check", "skip").edge("apply", "invoice")
        .edge("skip", "invoice")
        .build()
    )

    # 2. Execute it while an attacker forges the computed total
    #    (qty*unit = 3*20 = 60 — no discount; the attacker writes 500,
    #    stealing a discount and corrupting the invoice).
    initial = {"qty": 3, "unit": 20, "eligible": 0, "payable": 0,
               "billed": 0, "total": 0}
    store, log = DataStore(initial), SystemLog()
    engine = Engine(store, log)
    attack = AttackCampaign().corrupt_task("price", total=500)
    engine.run_to_completion(engine.new_run(spec, "order.1"), tamper=attack)

    print("After the attacked run:")
    print(f"  path taken : "
          f"{[str(r.instance) for r in log.trace('order.1')]}")
    print(f"  billed     : {store.read('billed')} (should be 60)")

    # 3. The IDS reports the tampered instance.
    alerts = list(attack.malicious_uids)
    print(f"\nIDS alerts: {alerts}")

    # 4. Damage analysis: Theorems 1 and 2.
    analyzer = RecoveryAnalyzer(log, engine.specs_by_instance)
    plan = analyzer.analyze(alerts)
    print(f"Plan: {plan.summary()}")
    print(f"  definite undo: {sorted(plan.undo_analysis.definite)}")
    print(f"  candidates   : {sorted(plan.undo_analysis.candidates)}")
    print(f"  schedule     : {[str(a) for a in plan.schedule()]}")

    # 5. Heal: re-execute the genuine code, re-decide the branch.
    healer = Healer(store, log, engine.specs_by_instance)
    report = healer.heal(alerts)
    print(f"\n{report.summary()}")
    print(f"  abandoned (wrong path): {sorted(report.abandoned)}")
    print(f"  new executions        : {sorted(report.new_executions)}")

    # 6. Verify Definition 2: the healed state equals a clean execution.
    audit = audit_strict_correctness(
        engine.specs_by_instance, initial, report.final_history,
        store.snapshot(),
    )
    print(f"\nAfter healing:")
    print(f"  billed           : {store.read('billed')}")
    print(f"  strictly correct : {audit.ok}")
    assert audit.ok and store.read("billed") == 60


if __name__ == "__main__":
    main()
