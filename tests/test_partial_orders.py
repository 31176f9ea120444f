"""Tests for the Theorem 3 partial order over recovery actions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import Action
from repro.core.partial_orders import recovery_partial_order
from repro.errors import CyclicOrderError
from repro.obs.events import OrderConstraint
from repro.workflow.dependency import DependencyAnalyzer
from repro.workflow.log import SystemLog
from repro.workflow.precedence import PartialOrder
from repro.workflow.task import TaskInstance


def commit(log, wf, task, reads=None, writes=None):
    return log.commit(
        TaskInstance(wf, task, 1), reads=reads or {}, writes=writes or {}
    )


@pytest.fixture
def conflict_log():
    """t1 reads a, writes x; t2 reads x, writes a (anti both ways);
    t3 rewrites x (output dep on t1)."""
    log = SystemLog()
    commit(log, "w", "t1", reads={"a": 0}, writes={"x": 1})
    commit(log, "w", "t2", reads={"x": 1}, writes={"a": 1})
    commit(log, "w", "t3", writes={"x": 2})
    return log


class TestTheorem3:
    def test_rule1_redos_follow_log_order(self, conflict_log):
        dep = DependencyAnalyzer(conflict_log)
        undos = ["w/t1#1", "w/t2#1"]
        order = recovery_partial_order(dep, undos, undos)
        assert order.precedes(Action.redo("w/t1#1"), Action.redo("w/t2#1"))
        assert not order.precedes(
            Action.redo("w/t2#1"), Action.redo("w/t1#1")
        )

    def test_rule3_undo_before_redo(self, conflict_log):
        dep = DependencyAnalyzer(conflict_log)
        order = recovery_partial_order(dep, ["w/t1#1"], ["w/t1#1"])
        assert order.precedes(Action.undo("w/t1#1"), Action.redo("w/t1#1"))

    def test_rule4_anti_dependence(self, conflict_log):
        """t1 →a t2 (t2 rewrites a which t1 read) ⇒ undo(t2) ≺ redo(t1)."""
        dep = DependencyAnalyzer(conflict_log)
        order = recovery_partial_order(
            dep, ["w/t1#1", "w/t2#1"], ["w/t1#1", "w/t2#1"]
        )
        assert order.precedes(Action.undo("w/t2#1"), Action.redo("w/t1#1"))

    def test_rule5_output_dependence(self, conflict_log):
        """t1 →o t3 (t3 rewrites x) ⇒ undo(t3) ≺ undo(t1)."""
        dep = DependencyAnalyzer(conflict_log)
        order = recovery_partial_order(
            dep, ["w/t1#1", "w/t3#1"], []
        )
        assert order.precedes(Action.undo("w/t3#1"), Action.undo("w/t1#1"))

    def test_order_is_acyclic(self, conflict_log):
        dep = DependencyAnalyzer(conflict_log)
        all_uids = ["w/t1#1", "w/t2#1", "w/t3#1"]
        order = recovery_partial_order(dep, all_uids, all_uids)
        order.check_acyclic()  # must not raise

    def test_elements_match_inputs(self, conflict_log):
        dep = DependencyAnalyzer(conflict_log)
        order = recovery_partial_order(dep, ["w/t1#1"], [])
        assert order.elements() == frozenset({Action.undo("w/t1#1")})

    def test_figure1_order_schedulable(self, figure1):
        dep = DependencyAnalyzer(figure1.log, figure1.specs_by_instance)
        from repro.core.undo_redo import find_redo_tasks, find_undo_tasks

        undo = find_undo_tasks(dep, [figure1.malicious_uid])
        redo = find_redo_tasks(dep, undo.definite)
        order = recovery_partial_order(dep, undo.definite, redo.definite)
        schedule = order.topological_order()
        # Every undo precedes its redo in the schedule.
        for uid in undo.definite & redo.definite:
            assert schedule.index(Action.undo(uid)) < schedule.index(
                Action.redo(uid)
            )


class TestActions:
    def test_action_str(self):
        assert str(Action.undo("w/t1#1")) == "undo(w/t1#1)"
        assert str(Action.redo("w/t1#1")) == "redo(w/t1#1)"

    def test_action_hashable_ordered(self):
        a, b = Action.undo("u"), Action.redo("u")
        assert len({a, b, Action.undo("u")}) == 2
        assert sorted([b, a])  # sortable without error


def reference_partial_order(analyzer, undo_set, redo_set, trace=None):
    """The Theorem 3 order built one ``add_edge`` call per edge, T3.1
    included: the reference the bulk chain insert must reproduce."""
    undos = frozenset(undo_set)
    redos = frozenset(redo_set)
    order = PartialOrder()

    def add_edge(rule, before, after):
        order.add_edge(before, after)
        if trace is not None:
            trace.append(OrderConstraint(
                0.0, rule=rule, before=str(before), after=str(after),
            ))

    for uid in sorted(undos):
        order.add_element(Action.undo(uid))
    for uid in sorted(redos):
        order.add_element(Action.redo(uid))
    for uid in sorted(undos & redos):
        add_edge("T3.3", Action.undo(uid), Action.redo(uid))
    redo_chain = [Action.redo(u) for u in
                  sorted(redos, key=lambda u: analyzer.record(u).seq)]
    for i, earlier in enumerate(redo_chain):
        for later in redo_chain[i + 1:]:
            add_edge("T3.1", earlier, later)
    for uid in sorted(undos | redos):
        for edge in analyzer.anti_edges_from(uid):
            if uid in redos and edge.dst in undos:
                add_edge("T3.4", Action.undo(edge.dst), Action.redo(uid))
        for edge in analyzer.output_edges_from(uid):
            if uid in undos and edge.dst in undos:
                add_edge("T3.5", Action.undo(edge.dst), Action.undo(uid))
    return order


OBJECTS = "abcdef"

#: Per task: workflow index, objects read, objects written, and whether
#: the task is undone and redone.
tasks = st.lists(
    st.tuples(st.integers(0, 3), st.sets(st.sampled_from(OBJECTS)),
              st.sets(st.sampled_from(OBJECTS)), st.booleans(),
              st.booleans()),
    min_size=1, max_size=24,
)


def random_case(batch):
    """A log with versioned reads and writes, and its undo/redo sets."""
    log, versions, visits = SystemLog(), {}, {}
    undos, redos = [], []
    for wf, reads, writes, undo, redo in batch:
        name = f"w{wf}"
        visits[name] = visits.get(name, 0) + 1
        record = log.commit(
            TaskInstance(name, f"t{visits[name]}", 1),
            reads={o: versions.get(o, 0) for o in sorted(reads)},
            writes={o: versions.get(o, 0) + 1 for o in sorted(writes)},
        )
        for o in writes:
            versions[o] = versions.get(o, 0) + 1
        if undo:
            undos.append(record.uid)
        if redo:
            redos.append(record.uid)
    return DependencyAnalyzer(log), undos, redos


def iteration_order(order):
    """Every element's successor and predecessor sets, as listed."""
    return ({e: list(s) for e, s in order._succ.items()},
            {e: list(p) for e, p in order._pred.items()})


class TestBulkRedoChain:
    """T3.1 inserts the redo chain's r(r-1)/2 edges in one
    :meth:`PartialOrder.add_chain`; the order must be the one the
    per-edge build makes, down to set iteration order (which feeds the
    random tie-break and so the flight logs)."""

    @settings(max_examples=80, deadline=None)
    @given(tasks, st.integers(0, 2**32 - 1))
    def test_matches_per_edge_build(self, batch, seed):
        analyzer, undos, redos = random_case(batch)
        expected = reference_partial_order(analyzer, undos, redos)
        order = recovery_partial_order(analyzer, undos, redos)
        assert order.edges() == expected.edges()
        assert list(order) == list(expected)
        assert iteration_order(order) == iteration_order(expected)
        assert order.topological_order() == expected.topological_order()
        assert (order.topological_order(tiebreak=random.Random(seed))
                == expected.topological_order(
                    tiebreak=random.Random(seed)))

    @settings(max_examples=80, deadline=None)
    @given(tasks)
    def test_trace_lists_every_pair_in_per_edge_order(self, batch):
        analyzer, undos, redos = random_case(batch)
        trace, expected_trace = [], []
        expected = reference_partial_order(analyzer, undos, redos,
                                           trace=expected_trace)
        order = recovery_partial_order(analyzer, undos, redos, trace=trace)
        untraced = recovery_partial_order(analyzer, undos, redos)
        assert iteration_order(order) == iteration_order(untraced)
        assert iteration_order(order) == iteration_order(expected)
        assert trace == expected_trace
        r = len(set(redos))
        assert sum(e.rule == "T3.1" for e in trace) == r * (r - 1) // 2

    def test_add_chain_onto_existing_edges(self):
        seq = [f"n{i}" for i in range(12)]
        bulk, pairwise = PartialOrder(), PartialOrder()
        for order in (bulk, pairwise):
            order.add_edge("n3", "x")
            order.add_edge("y", "n7")
        bulk.add_chain(seq)
        for i, earlier in enumerate(seq):
            for later in seq[i + 1:]:
                pairwise.add_edge(earlier, later)
        assert list(bulk) == list(pairwise)
        assert iteration_order(bulk) == iteration_order(pairwise)

    def test_add_chain_rejects_a_repeat(self):
        with pytest.raises(CyclicOrderError):
            PartialOrder().add_chain(["a", "b", "a"])
