"""The indexed damage analysis: every dependence query of a dependency
index equals a linear scan of the log it was built on, and the
provenance a heal emits stays pinned byte for byte."""

import gc
import hashlib
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.actions import Action, ActionKind
from repro.core.epochs import EpochManager
from repro.errors import RecoveryError
from repro.ids.attacks import AttackCampaign
from repro.system import SelfHealingSystem
from repro.workflow.data import DataStore
from repro.workflow.dependency import (
    ControlDependencies,
    DependencyAnalyzer,
    DependencyEdge,
    DependencyKind,
)
from repro.workflow.log import RecordKind, SystemLog
from repro.workflow.spec import workflow
from repro.workflow.task import TaskInstance

#: t1 → t2 (branch) → t3 | t4 → t5: t3 and t4 are control dependent on t2.
BRANCHING = (
    workflow("branching")
    .task("t1", reads=["a"], writes=["b"])
    .task("t2", reads=["b"], writes=["c"], choose=lambda d: "t3")
    .task("t3", reads=["c"], writes=["a"])
    .task("t4", reads=["a"], writes=["c"])
    .task("t5", reads=["a", "c"], writes=["b"])
    .edge("t1", "t2").edge("t2", "t3").edge("t2", "t4")
    .edge("t3", "t5").edge("t4", "t5")
    .build()
)
INSTANCES = ("w0", "w1", "w2")
SPECS = {wf: BRANCHING for wf in INSTANCES}


class LinearScan:
    """The reference: every query as a scan over the whole log."""

    def __init__(self, log, specs):
        self.log = log
        self.records = log.normal_records()
        self.models = {wf: ControlDependencies(spec)
                       for wf, spec in specs.items()}
        self.writer_of_version = {}
        for r in self.records:
            for name, ver in r.writes.items():
                self.writer_of_version[(name, ver)] = r.uid

    def flow_sources(self, uid):
        dst = self.log.get(uid)
        by_src = {}
        for name, ver in dst.reads.items():
            src = self.writer_of_version.get((name, ver))
            if src is not None and src != uid:
                by_src.setdefault(src, set()).add(name)
        return tuple(
            DependencyEdge(src, uid, DependencyKind.FLOW, frozenset(objs))
            for src, objs in sorted(by_src.items())
        )

    def flow_dependents(self, uid):
        src = self.log.get(uid)
        written = set(src.writes.items())
        out = []
        for r in self.records:
            if r.seq <= src.seq:
                continue
            objs = {name for name, ver in r.reads.items()
                    if (name, ver) in written}
            if objs:
                out.append(DependencyEdge(uid, r.uid, DependencyKind.FLOW,
                                          frozenset(objs)))
        return tuple(out)

    def _first_later_writers(self, uid, names, kind):
        src = self.log.get(uid)
        out = []
        pending = set(names)
        for r in self.records:
            if r.seq <= src.seq or not pending:
                continue
            objs = pending & set(r.writes)
            if objs:
                out.append(DependencyEdge(uid, r.uid, kind, frozenset(objs)))
                pending -= objs
        return tuple(out)

    def anti_edges_from(self, uid):
        return self._first_later_writers(
            uid, self.log.get(uid).reads, DependencyKind.ANTI)

    def output_edges_from(self, uid):
        return self._first_later_writers(
            uid, self.log.get(uid).writes, DependencyKind.OUTPUT)

    def control_dependents(self, uid):
        src = self.log.get(uid)
        wf = src.instance.workflow_instance
        model = self.models[wf]
        return tuple(
            r.uid for r in self.log.trace(wf)
            if r.seq > src.seq
            and model.depends(src.instance.task_id, r.instance.task_id)
        )

    def control_sources(self, uid):
        dst = self.log.get(uid)
        wf = dst.instance.workflow_instance
        model = self.models[wf]
        return tuple(
            r.uid for r in self.log.trace(wf)
            if r.seq < dst.seq
            and model.depends(r.instance.task_id, dst.instance.task_id)
        )

    def flow_closure(self, seeds):
        seen = set()
        frontier = list(seeds)
        while frontier:
            for edge in self.flow_dependents(frontier.pop()):
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    frontier.append(edge.dst)
        return frozenset(seen)


PER_UID_QUERIES = ("flow_sources", "flow_dependents", "anti_edges_from",
                   "output_edges_from", "control_dependents",
                   "control_sources")


def assert_matches_scan(dep, log):
    """Every query of ``dep`` equals the linear scan of ``log`` now."""
    ref = LinearScan(log, SPECS)
    uids = [r.uid for r in ref.records]
    for uid in uids:
        assert dep.record(uid) is log.get(uid)
        for query in PER_UID_QUERIES:
            assert getattr(dep, query)(uid) == getattr(ref, query)(uid), \
                (query, uid)
        assert dep.anti_successors(uid) == tuple(
            e.dst for e in ref.anti_edges_from(uid))
        assert dep.output_successors(uid) == tuple(
            e.dst for e in ref.output_edges_from(uid))
        for edge in ref.flow_dependents(uid):
            assert dep.flow_objects(uid, edge.dst) == edge.objects
        written = log.get(uid).writes
        assert dep.readers_of(written) == [
            r for r in ref.records if set(r.reads) & set(written)]
        assert dep.flow_closure([uid]) == ref.flow_closure([uid])
    assert dep.flow_closure(uids) == ref.flow_closure(uids)
    assert dep.flow_closure([]) == frozenset()
    for wf in INSTANCES:
        assert dep.trace(wf) == log.trace(wf)
    with pytest.raises(RecoveryError):
        dep.record("nowhere/t1#1")


entries = st.lists(
    st.tuples(
        st.sampled_from(INSTANCES),
        st.sampled_from(sorted(BRANCHING.tasks)),
        st.dictionaries(st.sampled_from("abc"), st.integers(0, 3),
                        max_size=3),
        st.dictionaries(st.sampled_from("abc"), st.integers(0, 3),
                        max_size=3),
        st.sampled_from((RecordKind.NORMAL,) * 3
                        + (RecordKind.UNDO, RecordKind.REDO)),
    ),
    max_size=12,
)


def commit_all(log, batch, visits):
    """Commit ``batch``; undo/redo entries re-commit the latest normal
    instance (and are dropped before there is one)."""
    for wf, task, reads, writes, kind in batch:
        if kind == RecordKind.NORMAL:
            visits[(wf, task)] = visits.get((wf, task), 0) + 1
            instance = TaskInstance(wf, task, visits[(wf, task)])
        else:
            normal = log.normal_records()
            if not normal:
                continue
            instance = normal[-1].instance
        log.commit(instance, reads=reads, writes=writes, kind=kind)


class TestQueriesAgainstLinearScan:
    @settings(max_examples=60, deadline=None)
    @given(entries)
    def test_index_built_at_once(self, batch):
        log = SystemLog()
        commit_all(log, batch, {})
        assert_matches_scan(DependencyAnalyzer(log, SPECS), log)

    def test_specs_are_read_live(self):
        log, specs = SystemLog(), {}
        dep = DependencyAnalyzer(log, specs)
        log.commit(TaskInstance("late", "t2"), reads={}, writes={})
        specs["late"] = BRANCHING
        # The one model of BRANCHING, shared with every other analyzer.
        other = DependencyAnalyzer(SystemLog(), {"other": BRANCHING})
        assert dep.control_model("late") is other.control_model("other")

    def test_control_model_is_shared_per_spec_and_dropped_with_it(self):
        spec = (workflow("solo").task("a", choose=lambda d: "b")
                .task("b").task("c").edge("a", "b").edge("a", "c")
                .build())
        scan = DependencyAnalyzer(SystemLog(), {"wf1": spec, "wf2": spec})
        heal = DependencyAnalyzer(SystemLog(), {"wf1": spec})
        model = scan.control_model("wf1")
        assert scan.control_model("wf2") is model
        assert heal.control_model("wf1") is model
        assert model.controllers_of("b") == frozenset({"a"})
        collected = weakref.ref(model)
        del spec, scan, heal, model
        gc.collect()
        assert collected() is None


def victim(name):
    return (
        workflow(name)
        .task("apply", reads=["balance"],
              writes=["balance", f"receipt_{name}"],
              compute=lambda d: {"balance": d["balance"] + 10,
                                 f"receipt_{name}": d["balance"] + 10})
        .build()
    )


class TestIndexLivesWithTheAnalyzer:
    def test_archived_log_has_only_its_own_attributes(self):
        initial = {"balance": 100}
        manager = EpochManager(DataStore(initial), initial)
        system = SelfHealingSystem(manager=manager)
        retired = []
        for wave in range(2):
            name = f"w{wave}"
            campaign = AttackCampaign().transform_task(
                "apply", lambda _, o: o, workflow_instance=name)
            manager.run_workflow_attacked(victim(name), campaign, name=name)
            retired.append(manager.log)
            system.submit_alert(campaign.malicious_uids[0])
            system.sweep()
        assert manager.epoch == 2
        for log in retired + [manager.log]:
            assert set(vars(log)) == {"_records", "_by_uid", "_next_seq"}


class TestPinnedProvenance:
    #: sha256 of ``obs record --scenario fullstack --lam 8 --buffer 8
    #: --horizon 5 --seed 3``: 986 records, each heal's T1/T2 decisions
    #: and T3 edges in order among them, the final sweep's heal of the
    #: alerts still queued at the horizon included.
    OVERLOAD_LOG_SHA256 = (
        "cf19429d08657363fca97ad58763baf6766e0f7f1769029c49d74ed2d0d39418")

    def test_overload_flight_log_digest(self, tmp_path, capsys):
        path = tmp_path / "overload.jsonl"
        assert main(["obs", "record", "--scenario", "fullstack",
                     "--lam", "8", "--buffer", "8", "--horizon", "5",
                     "--seed", "3", "--log", str(path)]) == 0
        assert "986 flight-log records" in capsys.readouterr().out
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.OVERLOAD_LOG_SHA256

    def test_action_value_semantics(self):
        undo_b, redo_a = Action.undo("w/t#1"), Action.redo("w/t#2")
        assert repr(undo_b) == \
            "Action(kind=<ActionKind.UNDO: 'undo'>, uid='w/t#1')"
        assert (str(undo_b), str(redo_a)) == ("undo(w/t#1)", "redo(w/t#2)")
        assert Action(ActionKind.UNDO, "x") == Action.undo("x")
        assert Action(kind=ActionKind.REDO, uid="x") == Action.redo("x")
        assert sorted([undo_b, redo_a, Action.undo("a")]) == [
            redo_a, Action.undo("a"), undo_b]
        assert hash(Action.undo("x")) == hash(Action.undo("x"))
        assert len({Action.undo("x"), Action.undo("x"),
                    Action.redo("x")}) == 2
        for action in (undo_b, redo_a):
            back = pickle.loads(pickle.dumps(action))
            assert back == action and type(back) is Action
            assert back.kind is action.kind
        with pytest.raises(AttributeError):
            undo_b.uid = "other"


def gated_profile(per_alert=0.05, orders=1.0, plan_wall=True,
                  plan_calls=4, planned=0, per_heal=1.0,
                  observed_per_heal=1.0, builds_per_heal=1.0):
    """A profile document whose fullstack rows carry the given closure
    and order line items (``orders=None`` leaves ``orders_per_heal``
    out): ``planned``, ``per_heal`` and ``builds_per_heal`` are the
    unobserved row's ``actions_planned``, ``undo_analyses_per_heal``
    and ``index_builds_per_heal`` (``None`` leaves either of the last
    two out), the order items and ``observed_per_heal``, its
    ``undo_analyses_per_heal``, sit on the observed row."""
    observed = {"orders_per_heal": orders, "plan_calls": plan_calls,
                "undo_analyses_per_heal": observed_per_heal}
    if orders is None:
        del observed["orders_per_heal"]
    if observed_per_heal is None:
        del observed["undo_analyses_per_heal"]
    if plan_wall:
        observed["plan_wall_s"] = 0.0
    unobserved = {"closure_recomputations": 3,
                  "closure_recomputations_per_alert": per_alert,
                  "index_builds_per_heal": builds_per_heal,
                  "actions_planned": planned,
                  "undo_analyses_per_heal": per_heal}
    if per_heal is None:
        del unobserved["undo_analyses_per_heal"]
    if builds_per_heal is None:
        del unobserved["index_builds_per_heal"]
    return {"results": [
        {"scenario": "fullstack", "digest_stable": True,
         "line_items": unobserved},
        {"scenario": "fullstack-observed", "digest_stable": True,
         "line_items": observed},
        {"scenario": "batch-parallel", "digest_stable": True,
         "line_items": {"fan_out_overhead_s": 0.0}},
        {"scenario": "conformance", "digest_stable": True,
         "line_items": {"violations": 0}},
        FLEET_OBSERVE_ROW,
        STORE_SCALING_ROW,
    ]}


#: A fleet-observe profile row that passes its gate.
FLEET_OBSERVE_ROW = {
    "scenario": "fleet-observe", "digest_stable": True,
    "line_items": {"replay_share": 0.1, "events_per_healed_alert": 18.0}}


#: A store-scaling profile row that passes its gate.
STORE_SCALING_ROW = {
    "scenario": "store-scaling", "digest_stable": True,
    "line_items": {"short_per_heal": 12.0, "long_per_heal": 11.0}}


class TestClosureGate:
    def test_per_alert_rebuilds_fail_the_profile_gate(self):
        from benchmarks.check_regression import (
            MAX_CLOSURE_PER_ALERT,
            check_profile,
        )

        assert check_profile(
            gated_profile(per_alert=MAX_CLOSURE_PER_ALERT), None) == []
        failures = check_profile(gated_profile(per_alert=1.0), None)
        assert len(failures) == 1
        assert "closure_recomputations_per_alert 1.0" in failures[0]
        assert "built once per heal" in failures[0]

    def test_other_than_one_index_per_heal_fails_the_profile_gate(self):
        from benchmarks.check_regression import (
            INDEX_BUILDS_PER_HEAL,
            check_profile,
        )

        assert INDEX_BUILDS_PER_HEAL == 1.0
        assert check_profile(gated_profile(builds_per_heal=1.0), None) == []
        # Fewer: a heal's build goes uncounted; more: builds beside it.
        for bad in (0.94, 2.0, None):
            failures = check_profile(gated_profile(builds_per_heal=bad),
                                     None)
            assert len(failures) == 1
            assert failures[0].startswith(
                f"profile fullstack: index_builds_per_heal {bad} ")

    def test_per_scan_plans_fail_the_profile_gate(self):
        from benchmarks.check_regression import (
            MAX_ORDERS_PER_HEAL,
            check_profile,
        )

        assert MAX_ORDERS_PER_HEAL == 1.0
        assert check_profile(gated_profile(orders=1.0), None) == []
        for bad, shown in ((7.9, "7.9"), (None, "None")):
            failures = check_profile(gated_profile(orders=bad), None)
            assert len(failures) == 1
            assert f"orders_per_heal {shown}" in failures[0]

    def test_profile_row_plans_each_action_once(self):
        from benchmarks.bench_profile import profile_fullstack

        unobserved, observed = profile_fullstack(horizon=15.0, seed=1)
        # Nothing observes an unobserved heal, so it builds no order.
        assert unobserved["counters"]["actions_planned"] == 0
        assert unobserved["line_items"]["actions_planned"] == 0
        assert observed["scenario"] == "fullstack-observed"
        assert observed["counters"]["actions_planned"] > 0
        assert observed["line_items"]["plan_calls"] > 0
        # One order per heal: each action is planned once, by the heal
        # that runs it.
        assert observed["line_items"]["orders_per_heal"] == 1.0
        # Scans decide nothing: Theorem 1 runs once per heal, the
        # heal's own decisions, observed or not.
        assert unobserved["line_items"]["undo_analyses_per_heal"] == 1.0
        assert observed["line_items"]["undo_analyses_per_heal"] == 1.0
        # Each heal builds, and counts, the one index it decides on.
        assert unobserved["line_items"]["index_builds_per_heal"] == 1.0

    def test_missing_plan_wall_fails_the_profile_gate(self):
        from benchmarks.check_regression import check_profile

        for doc in (gated_profile(plan_wall=False),
                    gated_profile(plan_calls=0)):
            failures = check_profile(doc, None)
            assert len(failures) == 1
            assert "plan_wall_s" in failures[0]
            assert "0 calls" in failures[0]

    def test_unobserved_planning_fails_the_profile_gate(self):
        from benchmarks.check_regression import check_profile

        for bad in (12, None):
            failures = check_profile(gated_profile(planned=bad), None)
            assert len(failures) == 1
            assert f"actions_planned {bad}" in failures[0]

    def test_scan_time_undo_analyses_fail_the_profile_gate(self):
        from benchmarks.check_regression import (
            MAX_UNDO_ANALYSES_PER_HEAL,
            check_profile,
        )

        assert MAX_UNDO_ANALYSES_PER_HEAL == 1.0
        assert check_profile(gated_profile(per_heal=1.0), None) == []
        for bad, shown in ((1.05, "1.05"), (3.8, "3.8"), (None, "None")):
            for row, doc in (
                    ("fullstack", gated_profile(per_heal=bad)),
                    ("fullstack-observed",
                     gated_profile(observed_per_heal=bad))):
                failures = check_profile(doc, None)
                assert len(failures) == 1
                assert failures[0].startswith(
                    f"profile {row}: undo_analyses_per_heal {shown}")

    def test_missing_observed_row_fails_the_profile_gate(self):
        from benchmarks.check_regression import check_profile

        doc = gated_profile()
        del doc["results"][1]
        failures = check_profile(doc, None)
        assert len(failures) == 1
        assert "no fullstack-observed row" in failures[0]


class TestStoreScalingGate:
    @staticmethod
    def profile(short, long):
        doc = gated_profile()
        doc["results"][-1] = {
            "scenario": "store-scaling", "digest_stable": True,
            "line_items": {"short_per_heal": short, "long_per_heal": long}}
        return doc

    def test_flat_per_heal_count_passes(self):
        from benchmarks.check_regression import (
            MAX_STORE_SCALING,
            check_profile,
        )

        assert check_profile(self.profile(10.0, 10.0), None) == []
        assert check_profile(
            self.profile(10.0, 10.0 * MAX_STORE_SCALING), None) == []

    @pytest.mark.parametrize("short, long, shown", [
        (10.0, 40.0, "40.0 store names touched per heal"),
        (0.0, 0.0, "no store names touched"),
    ])
    def test_growth_or_no_count_fails(self, short, long, shown):
        from benchmarks.check_regression import check_profile

        failures = check_profile(self.profile(short, long), None)
        assert len(failures) == 1
        assert shown in failures[0]

    def test_missing_row_fails(self):
        from benchmarks.check_regression import check_profile

        doc = gated_profile()
        doc["results"].pop()
        failures = check_profile(doc, None)
        assert len(failures) == 1
        assert "no store-scaling row" in failures[0]

    def test_profile_row_is_flat_in_the_horizon(self):
        from benchmarks.bench_profile import profile_store_scaling
        from benchmarks.check_regression import MAX_STORE_SCALING

        (row,) = profile_store_scaling((10.0, 40.0), seed=3)
        short, long = row["line_items"]["points"]
        assert short["heals"] < long["heals"]
        assert row["line_items"]["short_per_heal"] > 0
        assert (row["line_items"]["long_per_heal"]
                <= MAX_STORE_SCALING * row["line_items"]["short_per_heal"])
