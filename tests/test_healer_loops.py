"""Healing cyclic workflows: repeated task instances (t_i^k).

The paper allows circles in workflow graphs; repeated visits are
distinct instances.  Recovery may change *how many times* a loop runs —
e.g. an attacker forging the loop counter makes the original execution
iterate the wrong number of times; the healed execution must re-decide
every iteration, abandoning surplus instances or executing extra ones.
"""

from repro.core.axioms import audit_strict_correctness
from repro.core.healer import Healer
from repro.ids.attacks import AttackCampaign
from repro.workflow.data import DataStore
from repro.workflow.engine import Engine
from repro.workflow.log import SystemLog
from repro.workflow.spec import workflow


def countdown_spec():
    """init sets n; body decrements and accumulates; loops while n > 0."""
    return (
        workflow("loop")
        .task("init", reads=["seed"], writes=["n", "acc"],
              compute=lambda d: {"n": d["seed"], "acc": 0})
        .task("body", reads=["n", "acc"], writes=["n", "acc"],
              compute=lambda d: {"n": d["n"] - 1,
                                 "acc": d["acc"] + d["n"]},
              choose=lambda d: "body" if d["n"] > 0 else "fin")
        .task("fin", reads=["acc"], writes=["result"],
              compute=lambda d: {"result": d["acc"] * 10})
        .edge("init", "body").edge("body", "body").edge("body", "fin")
        .build()
    )


def run_attacked(seed_value, forged_n):
    initial = {"seed": seed_value, "n": 0, "acc": 0, "result": 0}
    store, log = DataStore(initial), SystemLog()
    engine = Engine(store, log)
    campaign = AttackCampaign()
    if forged_n is not None:
        # Tamper only the *init* write of n (the loop counter).
        campaign.transform_task(
            "init",
            lambda i, o, _f=forged_n: {"n": _f, "acc": o["acc"]},
        )
    engine.run_to_completion(engine.new_run(countdown_spec(), "L"),
                             tamper=campaign)
    return initial, store, log, engine, campaign


def heal_and_audit(initial, store, log, engine, campaign):
    healer = Healer(store, log, engine.specs_by_instance)
    report = healer.heal(campaign.malicious_uids)
    audit = audit_strict_correctness(
        engine.specs_by_instance, initial, report.final_history,
        store.snapshot(),
    )
    assert audit.ok, audit.problems
    return report


class TestLoopHealing:
    def test_attack_shrinks_loop(self):
        """Genuine seed 5 (5 iterations); attacker forges n=2 (2
        iterations).  Healing must *extend* the loop back to 5."""
        initial, store, log, engine, campaign = run_attacked(5, forged_n=2)
        body_runs = [r for r in log.trace("L")
                     if r.instance.task_id == "body"]
        assert len(body_runs) == 2
        report = heal_and_audit(initial, store, log, engine, campaign)
        # acc = 5+4+3+2+1 = 15 → result 150
        assert store.read("result") == 150
        # The two original body instances redone, three new ones added.
        redone_bodies = [u for u in report.redone if "/body#" in u]
        new_bodies = [u for u in report.new_executions if "/body#" in u]
        assert len(redone_bodies) == 2
        assert len(new_bodies) == 3

    def test_attack_grows_loop(self):
        """Genuine seed 2; attacker forges n=6.  Healing must *cut* the
        loop to 2 iterations, abandoning the surplus instances."""
        initial, store, log, engine, campaign = run_attacked(2, forged_n=6)
        body_runs = [r for r in log.trace("L")
                     if r.instance.task_id == "body"]
        assert len(body_runs) == 6
        report = heal_and_audit(initial, store, log, engine, campaign)
        assert store.read("result") == 30  # acc = 2+1 = 3
        abandoned_bodies = [u for u in report.abandoned if "/body#" in u]
        assert len(abandoned_bodies) == 4
        # 'fin' was executed originally and must be redone (stale acc),
        # not duplicated.
        assert sum(1 for u in report.redone if "/fin#" in u) == 1

    def test_same_iteration_count_redo_in_place(self):
        """Attack that corrupts acc but not the loop count: every
        iteration is redone at its original position, none abandoned."""
        initial = {"seed": 3, "n": 0, "acc": 0, "result": 0}
        store, log = DataStore(initial), SystemLog()
        engine = Engine(store, log)
        campaign = AttackCampaign().transform_task(
            "init", lambda i, o: {"n": o["n"], "acc": 555}
        )
        engine.run_to_completion(engine.new_run(countdown_spec(), "L"),
                                 tamper=campaign)
        report = heal_and_audit(initial, store, log, engine, campaign)
        assert store.read("result") == 60  # acc = 3+2+1 = 6
        assert report.abandoned == ()
        assert report.new_executions == ()
        assert len(report.redone) == len(log.trace("L"))

    def test_clean_loop_untouched(self):
        initial, store, log, engine, campaign = run_attacked(4, None)
        healer = Healer(store, log, engine.specs_by_instance)
        report = healer.heal([])
        assert report.undone == ()
        assert len(report.kept) == len(log.trace("L"))

    def test_instance_numbers_in_healed_history(self):
        """New loop instances continue the numbering (t^3, t^4, ...)."""
        initial, store, log, engine, campaign = run_attacked(5, forged_n=2)
        report = heal_and_audit(initial, store, log, engine, campaign)
        new_numbers = sorted(
            int(u.split("#")[1]) for u in report.new_executions
            if "/body#" in u
        )
        assert new_numbers == [3, 4, 5]
