"""Adversarial healer tests: crafted dependency patterns.

Each test builds a log shaped to stress one rule of the recovery
theory — anti-dependences, output-dependences, malicious branch nodes,
re-converging diamonds, read-your-write chains, multiple malicious
tasks — and checks both the exact recovery outcome and Definition 2.
"""

from repro.core.axioms import audit_strict_correctness
from repro.core.healer import Healer
from repro.ids.attacks import AttackCampaign
from repro.workflow.data import DataStore
from repro.workflow.engine import Engine
from repro.workflow.log import SystemLog
from repro.workflow.spec import workflow


def heal_and_audit(store, log, engine, malicious, initial,
                   forged_runs=()):
    healer = Healer(store, log, engine.specs_by_instance)
    report = healer.heal(malicious, forged_runs=forged_runs)
    audit = audit_strict_correctness(
        {
            wf: spec
            for wf, spec in engine.specs_by_instance.items()
            if wf not in set(forged_runs)
        },
        initial, report.final_history, store.snapshot(),
    )
    assert audit.ok, audit.problems
    return report


class TestAntiDependence:
    def test_reader_before_corrupt_overwriter_kept(self):
        """r reads x; later the attacker's task overwrites x.  The
        reader's work is untouched (it read the pre-attack value); only
        the overwrite is repaired (rule T3.4's scenario)."""
        reader = (
            workflow("reader")
            .task("use", reads=["x"], writes=["a"],
                  compute=lambda d: {"a": d["x"] + 1})
            .build()
        )
        writer = (
            workflow("writer")
            .task("bump", reads=["x"], writes=["x"],
                  compute=lambda d: {"x": d["x"] * 2})
            .build()
        )
        initial = {"x": 10, "a": 0}
        store, log = DataStore(initial), SystemLog()
        engine = Engine(store, log)
        engine.run_to_completion(engine.new_run(reader, "R"))
        campaign = AttackCampaign().corrupt_task("bump", x=-999)
        engine.run_to_completion(engine.new_run(writer, "W"),
                                 tamper=campaign)
        report = heal_and_audit(store, log, engine,
                                campaign.malicious_uids, initial)
        assert "R/use#1" in report.kept
        assert "W/bump#1" in report.redone
        assert store.read("x") == 20 and store.read("a") == 11

    def test_redo_reads_pre_attack_value_not_later_write(self):
        """The malicious task's redo must read what it originally read
        (the settled view), not a value written after it."""
        first = (
            workflow("first")
            .task("f", reads=["x"], writes=["y"],
                  compute=lambda d: {"y": d["x"] + 1})
            .build()
        )
        second = (
            workflow("second")
            .task("s", reads=[], writes=["x"],
                  compute=lambda d: {"x": 1000})
            .build()
        )
        initial = {"x": 5, "y": 0}
        store, log = DataStore(initial), SystemLog()
        engine = Engine(store, log)
        campaign = AttackCampaign().corrupt_task("f", y=-1)
        engine.run_to_completion(engine.new_run(first, "F"),
                                 tamper=campaign)
        engine.run_to_completion(engine.new_run(second, "S"))
        assert store.read("x") == 1000
        report = heal_and_audit(store, log, engine,
                                campaign.malicious_uids, initial)
        # redo(f) must have used x=5 (its position), not x=1000.
        assert store.read("y") == 6
        assert "S/s#1" in report.kept
        assert store.read("x") == 1000


class TestOutputDependence:
    def test_two_malicious_writers_same_object(self):
        """Both writers of x are malicious; after healing, x must hold
        the second redo's (correct) value — rule T3.5's ordering,
        realized through settle order."""
        w1 = (
            workflow("w1")
            .task("a", reads=["base"], writes=["x"],
                  compute=lambda d: {"x": d["base"] + 1})
            .build()
        )
        w2 = (
            workflow("w2")
            .task("b", reads=["base"], writes=["x"],
                  compute=lambda d: {"x": d["base"] + 2})
            .build()
        )
        initial = {"base": 10, "x": 0}
        store, log = DataStore(initial), SystemLog()
        engine = Engine(store, log)
        campaign = (
            AttackCampaign()
            .corrupt_task("a", x=-111)
            .corrupt_task("b", x=-222)
        )
        engine.run_to_completion(engine.new_run(w1, "W1"),
                                 tamper=campaign)
        engine.run_to_completion(engine.new_run(w2, "W2"),
                                 tamper=campaign)
        report = heal_and_audit(store, log, engine,
                                campaign.malicious_uids, initial)
        assert store.read("x") == 12   # the later (clean) write wins
        assert set(report.redone) == {"W1/a#1", "W2/b#1"}

    def test_clean_overwrite_survives_undo(self):
        """bad writes x, then a clean independent task overwrites x:
        undoing the bad write must not clobber the clean value."""
        bad = (
            workflow("bad")
            .task("evil", reads=[], writes=["x"],
                  compute=lambda d: {"x": 1})
            .build()
        )
        good = (
            workflow("good")
            .task("fix", reads=["base"], writes=["x"],
                  compute=lambda d: {"x": d["base"] * 5})
            .build()
        )
        initial = {"base": 4, "x": 0}
        store, log = DataStore(initial), SystemLog()
        engine = Engine(store, log)
        campaign = AttackCampaign().corrupt_task("evil", x=-7)
        engine.run_to_completion(engine.new_run(bad, "B"),
                                 tamper=campaign)
        engine.run_to_completion(engine.new_run(good, "G"))
        report = heal_and_audit(store, log, engine,
                                campaign.malicious_uids, initial)
        assert store.read("x") == 20
        assert "G/fix#1" in report.kept


class TestMaliciousBranchNode:
    def test_attacked_decision_maker_flips_path(self):
        """The branch node itself is the malicious task — recovery must
        redo it and follow the corrected decision."""
        spec = (
            workflow("gate")
            .task("decide", reads=["score"], writes=["grade"],
                  compute=lambda d: {"grade": 1 if d["score"] > 50
                                     else 0},
                  choose=lambda d: "accept" if d["grade"] else "reject")
            .task("accept", reads=[], writes=["result"],
                  compute=lambda d: {"result": 1})
            .task("reject", reads=[], writes=["result"],
                  compute=lambda d: {"result": -1})
            .edge("decide", "accept").edge("decide", "reject")
            .build()
        )
        initial = {"score": 30, "grade": 0, "result": 0}
        store, log = DataStore(initial), SystemLog()
        engine = Engine(store, log)
        campaign = AttackCampaign().corrupt_task("decide", grade=1)
        engine.run_to_completion(engine.new_run(spec, "G"),
                                 tamper=campaign)
        assert store.read("result") == 1  # wrongly accepted
        report = heal_and_audit(store, log, engine,
                                campaign.malicious_uids, initial)
        assert store.read("result") == -1
        assert "G/accept#1" in report.abandoned
        assert "G/reject#1" in report.new_executions


class TestDiamondRejoin:
    def test_rejoin_task_redone_once_at_its_position(self):
        """Path flips from one arm to the other; the join task (present
        in the original trace) must be redone exactly once, not
        duplicated inline."""
        spec = (
            workflow("d")
            .task("split", reads=["v"], writes=["w"],
                  compute=lambda d: {"w": d["v"]},
                  choose=lambda d: "left" if d["w"] % 2 == 0 else "right")
            .task("left", reads=[], writes=["arm"],
                  compute=lambda d: {"arm": 100})
            .task("right", reads=[], writes=["arm"],
                  compute=lambda d: {"arm": 200})
            .task("join", reads=["arm"], writes=["total"],
                  compute=lambda d: {"total": d["arm"] + 1})
            .edge("split", "left").edge("split", "right")
            .edge("left", "join").edge("right", "join")
            .build()
        )
        initial = {"v": 3, "w": 0, "arm": 0, "total": 0}
        store, log = DataStore(initial), SystemLog()
        engine = Engine(store, log)
        campaign = AttackCampaign().corrupt_task("split", w=2)
        engine.run_to_completion(engine.new_run(spec, "D"),
                                 tamper=campaign)
        assert store.read("arm") == 100  # wrong arm
        report = heal_and_audit(store, log, engine,
                                campaign.malicious_uids, initial)
        assert store.read("arm") == 200 and store.read("total") == 201
        assert report.redone.count("D/join#1") == 1
        assert "D/join#1" not in report.new_executions
        assert "D/left#1" in report.abandoned


class TestDeepChains:
    def test_ten_stage_contamination_chain(self):
        """A 10-deep read chain: corruption at the head must propagate
        to a full-redo of the chain, nothing more, nothing less."""
        builder = workflow("chain")
        builder.task("t0", reads=["seed"], writes=["v0"],
                     compute=lambda d: {"v0": d["seed"]})
        for i in range(1, 10):
            builder.task(
                f"t{i}", reads=[f"v{i-1}"], writes=[f"v{i}"],
                compute=lambda d, _i=i: {f"v{_i}": d[f"v{_i-1}"] + 1},
            )
        builder.chain(*[f"t{i}" for i in range(10)])
        spec = builder.build()
        initial = {"seed": 1}
        initial.update({f"v{i}": 0 for i in range(10)})
        store, log = DataStore(initial), SystemLog()
        engine = Engine(store, log)
        campaign = AttackCampaign().corrupt_task("t0", v0=500)
        engine.run_to_completion(engine.new_run(spec, "C"),
                                 tamper=campaign)
        assert store.read("v9") == 509
        report = heal_and_audit(store, log, engine,
                                campaign.malicious_uids, initial)
        assert store.read("v9") == 10
        assert len(report.redone) == 10
        assert report.kept == ()


class TestMultipleMaliciousSameWorkflow:
    def test_two_attacks_one_trace(self):
        spec = (
            workflow("w")
            .task("a", reads=["s"], writes=["p"],
                  compute=lambda d: {"p": d["s"] + 1})
            .task("b", reads=["p"], writes=["q"],
                  compute=lambda d: {"q": d["p"] * 2})
            .task("c", reads=["q"], writes=["r"],
                  compute=lambda d: {"r": d["q"] - 3})
            .chain("a", "b", "c")
            .build()
        )
        initial = {"s": 4, "p": 0, "q": 0, "r": 0}
        store, log = DataStore(initial), SystemLog()
        engine = Engine(store, log)
        campaign = (
            AttackCampaign()
            .corrupt_task("a", p=70)
            .corrupt_task("c", r=80)
        )
        engine.run_to_completion(engine.new_run(spec, "W"),
                                 tamper=campaign)
        report = heal_and_audit(store, log, engine,
                                campaign.malicious_uids, initial)
        assert store.read("r") == (4 + 1) * 2 - 3
        assert set(report.redone) == {"W/a#1", "W/b#1", "W/c#1"}
