"""Tests for the online LTLf conformance monitor (`repro.obs.monitor`).

Four layers, mirroring the module:

1. **LTLf core** — formula progression is exact against a reference
   recursive-semantics evaluator on random formulas and traces
   (hypothesis), and the strong/weak next distinction survives to the
   end of the trace.
2. **Property pack** — each Definition 2 property fires on a
   hand-built violating stream and stays silent on the honest variant,
   including monitor-level analogues of the three ``--inject`` plan
   mutations.
3. **Replay identity** — the online violation stream equals the
   offline :func:`replay_conformance` stream on random event
   sequences and on full generated campaigns (honest and mutated).
4. **Pipeline invariance** — `sim.batch` conformance verdicts are
   identical at any worker count.
5. **Shared tables** — the per-process int-state table agrees with a
   left fold of :func:`progress` after every step, is shared by every
   automaton of a formula.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import (
    ConformanceViolation,
    EventBus,
    EventRecorder,
    HealFinished,
    HealStarted,
    NormalTaskRefused,
    OrderConstraint,
    RedoDecision,
    TaskRedone,
    TaskUndone,
    UndoDecision,
    UnitEmitted,
    realized_action,
)
from repro.obs.monitor import (
    FALSE,
    TRUE,
    And,
    ConformanceMonitor,
    Const,
    MonitorAutomaton,
    Next,
    Not,
    Or,
    Prop,
    Release,
    Tail,
    Until,
    Verdict,
    WeakNext,
    always,
    atoms,
    eval_empty,
    eventually,
    implies,
    land,
    lnot,
    lor,
    monitor_dfa,
    nxt,
    progress,
    prop,
    release,
    replay_conformance,
    strict_property_pack,
    until,
    weak_until,
    wnext,
)
from tests.conftest import reversed_t31_events


# --------------------------------------------------------------------------
# Reference LTLf semantics (independent of progression)
# --------------------------------------------------------------------------


def sat(f, trace):
    """Finite-trace LTLf satisfaction, written the textbook way.

    The empty trace resolves by the same strong/weak emptiness rules
    the monitor's :func:`eval_empty` implements — that shared base case
    is the semantics under test, not an artifact: progression must
    agree with *this* recursion on every nonempty trace.
    """
    if not trace:
        return eval_empty(f)
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Prop):
        return bool(trace[0].get(f.name, False))
    if isinstance(f, Not):
        return not sat(f.operand, trace)
    if isinstance(f, And):
        return all(sat(p, trace) for p in f.parts)
    if isinstance(f, Or):
        return any(sat(p, trace) for p in f.parts)
    if isinstance(f, Next):
        return len(trace) >= 2 and sat(f.operand, trace[1:])
    if isinstance(f, WeakNext):
        return len(trace) < 2 or sat(f.operand, trace[1:])
    if isinstance(f, Until):
        return any(
            sat(f.right, trace[j:])
            and all(sat(f.left, trace[k:]) for k in range(j))
            for j in range(len(trace))
        )
    if isinstance(f, Release):
        return all(
            sat(f.right, trace[j:])
            or any(sat(f.left, trace[k:]) for k in range(j))
            for j in range(len(trace))
        )
    if isinstance(f, Tail):
        return sat(f.operand, trace)
    raise TypeError(f)


formula_st = st.recursive(
    st.sampled_from([prop("a"), prop("b"), TRUE, FALSE]),
    lambda inner: st.one_of(
        inner.map(lnot),
        st.tuples(inner, inner).map(lambda t: land(*t)),
        st.tuples(inner, inner).map(lambda t: lor(*t)),
        inner.map(nxt),
        inner.map(wnext),
        st.tuples(inner, inner).map(lambda t: until(*t)),
        st.tuples(inner, inner).map(lambda t: release(*t)),
        inner.map(always),
        inner.map(eventually),
        st.tuples(inner, inner).map(lambda t: weak_until(*t)),
    ),
    max_leaves=8,
)

letter_st = st.fixed_dictionaries({"a": st.booleans(), "b": st.booleans()})
trace_st = st.lists(letter_st, max_size=6)


class TestLtlfCore:
    @settings(max_examples=300, deadline=None)
    @given(f=formula_st, trace=trace_st)
    def test_progression_matches_reference_semantics(self, f, trace):
        automaton = MonitorAutomaton(f)
        for letter in trace:
            automaton.step(letter)
        expected = sat(f, trace)
        assert automaton.finalize() is (
            Verdict.SATISFIED if expected else Verdict.VIOLATED
        )

    @settings(max_examples=150, deadline=None)
    @given(f=formula_st, trace=trace_st)
    def test_decided_verdicts_are_irrevocable(self, f, trace):
        # Once the automaton reaches a sink, no extension of the trace
        # can change the outcome — check against the reference on the
        # full trace.
        automaton = MonitorAutomaton(f)
        for i, letter in enumerate(trace):
            verdict = automaton.step(letter)
            if verdict is Verdict.SATISFIED:
                assert sat(f, trace)
                return
            if verdict is Verdict.VIOLATED:
                assert not sat(f, trace)
                return

    def test_strong_next_fails_at_last_position(self):
        # G(a -> X b): an `a` at the last position violates.
        f = always(implies(prop("a"), nxt(prop("b"))))
        automaton = MonitorAutomaton(f)
        automaton.step({"a": True, "b": False})
        assert automaton.finalize() is Verdict.VIOLATED

    def test_weak_next_holds_at_last_position(self):
        f = always(implies(prop("a"), wnext(prop("b"))))
        automaton = MonitorAutomaton(f)
        automaton.step({"a": True, "b": False})
        assert automaton.finalize() is Verdict.SATISFIED

    def test_four_valued_verdicts(self):
        f = eventually(prop("a"))
        automaton = MonitorAutomaton(f)
        assert automaton.step({"a": False}) is Verdict.PRESUMABLY_FALSE
        assert automaton.step({"a": True}) is Verdict.SATISFIED
        g = always(lnot(prop("a")))
        other = MonitorAutomaton(g)
        assert other.step({"a": False}) is Verdict.PRESUMABLY_TRUE
        assert other.step({"a": True}) is Verdict.VIOLATED

    def test_smart_constructors_fold_constants(self):
        assert land() is TRUE
        assert lor() is FALSE
        assert land(prop("a"), FALSE) is FALSE
        assert lor(prop("a"), TRUE) is TRUE
        assert lnot(lnot(prop("a"))) == prop("a")
        assert until(prop("a"), TRUE) is TRUE
        assert release(prop("a"), FALSE) is FALSE

    def test_atoms_collects_the_alphabet(self):
        f = land(weak_until(lnot(prop("x")), prop("y")),
                 always(nxt(prop("z"))))
        assert atoms(f) == frozenset({"x", "y", "z"})

    def test_progress_restricted_to_letter(self):
        # Unknown atoms default to False — extractors may pass partial
        # valuations.
        assert progress(prop("missing"), {}) is FALSE


# --------------------------------------------------------------------------
# Property pack scenarios
# --------------------------------------------------------------------------


def run_monitor(events, finalize=True):
    monitor = ConformanceMonitor()
    out = []
    for event in events:
        out.extend(monitor.consume(event))
    if finalize:
        out.extend(monitor.finalize())
    return monitor, out


def heal_bracket(t, uids=("wf/t1#1",)):
    return [
        HealStarted(t, malicious=tuple(uids)),
        HealFinished(t + 1.0, undone=1, redone=1, kept=0, abandoned=0,
                     new_executions=0, duration=1.0),
    ]


class TestPropertyPack:
    def test_honest_heal_cycle_is_clean(self):
        uid = "wf/t1#1"
        events = [
            UnitEmitted(1.0, units=1, queue_depth=1),
            HealStarted(2.0, malicious=(uid,)),
            UndoDecision(2.0, uid=uid, condition="T1.1"),
            RedoDecision(2.0, uid=uid, condition="T2.1"),
            TaskUndone(2.0, uid=uid, reason="closure"),
            TaskRedone(2.5, uid=uid),
            HealFinished(3.0, undone=1, redone=1, kept=0, abandoned=0,
                         new_executions=0, duration=1.0),
        ]
        monitor, violations = run_monitor(events)
        assert violations == []
        assert monitor.violations == []

    def test_undo_outside_heal_bracket(self):
        _, violations = run_monitor([TaskUndone(1.0, uid="wf/t1#1")],
                                    finalize=False)
        assert [v.property for v in violations] == ["task-within-heal"]

    def test_unmatched_heal_finished(self):
        _, violations = run_monitor(
            [HealFinished(1.0, undone=0, redone=0, kept=0, abandoned=0,
                          new_executions=0, duration=0.0)],
            finalize=False,
        )
        assert "heal-alternation" in [v.property for v in violations]

    def test_unfinished_heal_flagged_at_finalize(self):
        # HealStarted's X(¬hs U hf) obligation is strong: a trace that
        # ends mid-heal is finally-violated.
        _, violations = run_monitor(
            [HealStarted(1.0, malicious=("wf/t1#1",))]
        )
        assert ("heal-alternation", "finally-violated") in [
            (v.property, v.verdict) for v in violations
        ]

    def test_undo_completeness_obligation(self):
        events = [UndoDecision(1.0, uid="wf/t1#1", condition="T1.3")]
        _, violations = run_monitor(events)
        assert [(v.property, v.instance) for v in violations] == [
            ("undo-completeness", "wf/t1#1")
        ]
        # ...and discharged by the undo inside a bracket.
        honest = events + [
            HealStarted(2.0, malicious=("wf/t1#1",)),
            TaskUndone(2.0, uid="wf/t1#1", reason="closure"),
            HealFinished(3.0, undone=1, redone=0, kept=0, abandoned=0,
                         new_executions=0, duration=1.0),
        ]
        _, violations = run_monitor(honest)
        assert violations == []

    def test_redo_follow_through_discharged_by_abandonment(self):
        base = [
            RedoDecision(1.0, uid="wf/t3#1", condition="T2.1"),
            HealStarted(2.0, malicious=("wf/t3#1",)),
            TaskUndone(2.0, uid="wf/t3#1", reason="closure"),
        ]
        close = [HealFinished(3.0, undone=1, redone=0, kept=0,
                              abandoned=1, new_executions=0,
                              duration=1.0)]
        # Undone but never redone nor abandoned: finally-violated.
        _, violations = run_monitor(base + close)
        assert [(v.property, v.verdict) for v in violations] == [
            ("redo-follow-through", "finally-violated")
        ]
        # The healed path dropped the record (second undo note with
        # reason "abandoned"): obligation discharged.
        _, violations = run_monitor(
            base + [TaskUndone(2.5, uid="wf/t3#1", reason="abandoned")]
            + close
        )
        assert violations == []

    def test_candidate_decisions_spawn_no_obligation(self):
        _, violations = run_monitor([
            UndoDecision(1.0, uid="wf/t2#1", condition="T1.2"),
            UndoDecision(1.0, uid="wf/t2#1", condition="T1.4"),
            RedoDecision(1.0, uid="wf/t2#1", condition="T2.2"),
        ])
        assert violations == []

    def test_undo_before_redo(self):
        _, violations = run_monitor(
            heal_bracket(1.0)[:1] + [TaskRedone(1.5, uid="wf/t9#1")],
            finalize=False,
        )
        assert [v.property for v in violations] == ["undo-before-redo"]
        # mode="new" executions have no prior history to undo.
        _, violations = run_monitor(
            heal_bracket(1.0)[:1]
            + [TaskRedone(1.5, uid="wf/t9#2", mode="new")],
            finalize=False,
        )
        assert violations == []

    def test_normal_refusal(self):
        _, violations = run_monitor(
            [NormalTaskRefused(1.0, state="NORMAL")], finalize=False,
        )
        assert [v.property for v in violations] == ["normal-refusal"]
        _, violations = run_monitor(
            [NormalTaskRefused(1.0, state="SCAN")], finalize=False,
        )
        assert violations == []

    def test_violation_stamped_with_event_time(self):
        _, violations = run_monitor(
            [TaskUndone(7.25, uid="wf/t1#1")], finalize=False,
        )
        assert violations[0].time == 7.25


class TestInjectionAnalogues:
    """Monitor-level analogues of the three ``--inject`` mutations."""

    def test_drop_undo_is_a_missing_claim(self):
        # The heal claims uid's undo and redo in its decisions, skips
        # the undo and redoes it anyway.
        uid = "wf/t1#1"
        _, violations = run_monitor([
            HealStarted(1.0, malicious=(uid,)),
            UndoDecision(1.0, uid=uid, condition="T1.1"),
            RedoDecision(1.0, uid=uid, condition="T2.1"),
            TaskRedone(1.5, uid=uid),
            HealFinished(2.0, undone=0, redone=1, kept=0, abandoned=0,
                         new_executions=0, duration=1.0),
        ])
        assert [(v.property, v.verdict, v.instance) for v in violations] \
            == [("undo-before-redo", "violated", uid),
                ("undo-completeness", "finally-violated", uid)]

    def test_extra_redo_is_an_unjustified_claim(self):
        # The heal claims a definite redo it never runs.
        _, violations = run_monitor([
            HealStarted(1.0, malicious=("wf/t1#1",)),
            RedoDecision(1.0, uid="wf/t9#1", condition="T2.1"),
            HealFinished(2.0, undone=0, redone=0, kept=0, abandoned=0,
                         new_executions=0, duration=1.0),
        ])
        assert [(v.property, v.verdict, v.instance) for v in violations] \
            == [("redo-follow-through", "finally-violated", "wf/t9#1")]

    def test_unclaimed_unit_makes_no_claim(self):
        # A queued unit carries counts only: the heal, not the scan,
        # decides, so the monitor reads no UnitEmitted.
        _, violations = run_monitor([
            UnitEmitted(1.0, units=1, queue_depth=1),
        ])
        assert violations == []
        assert UnitEmitted not in ConformanceMonitor.CONSUMES

    def test_reverse_edge_breaks_order_consistency(self):
        # The heal-side fault: undo(t) committed after redo(t).
        edge = OrderConstraint(1.0, rule="T3.3",
                               before="undo(wf/t1#1)",
                               after="redo(wf/t1#1)")
        honest = [
            edge,
            HealStarted(2.0, malicious=("wf/t1#1",)),
            TaskUndone(2.0, uid="wf/t1#1", reason="closure"),
            TaskRedone(2.0, uid="wf/t1#1"),
            *heal_bracket(2.0)[1:],
        ]
        _, violations = run_monitor(honest)
        assert violations == []
        reversed_ = [
            edge,
            HealStarted(2.0, malicious=("wf/t1#1",)),
            TaskRedone(2.0, uid="wf/t1#1"),
            TaskUndone(2.0, uid="wf/t1#1", reason="closure"),
            *heal_bracket(2.0)[1:],
        ]
        _, violations = run_monitor(reversed_)
        assert [(v.property, v.verdict) for v in violations] == [
            ("undo-before-redo", "violated"),
            ("order-consistency", "finally-violated"),
        ]

    def test_reversed_t31_redos_trip_only_order_consistency(self):
        _, violations = run_monitor(reversed_t31_events())
        assert [(v.property, v.verdict, v.instance)
                for v in violations] == [
            ("order-consistency", "finally-violated",
             "redo(wf/a#1) < redo(wf/b#1)"),
        ]

    def test_disposition_notes_and_new_paths_are_not_slots(self):
        # Were either note a realized ``undo(a)`` / ``redo(a)``, it
        # would be an ``after`` realized ahead of its ``before``.
        events = [
            OrderConstraint(1.0, rule="T3.5", before="undo(wf/b#1)",
                            after="undo(wf/a#1)"),
            OrderConstraint(1.0, rule="T3.4", before="undo(wf/b#1)",
                            after="redo(wf/a#1)"),
            HealStarted(2.0, malicious=("wf/b#1",)),
            TaskUndone(2.0, uid="wf/a#1", reason="abandoned",
                       disposition=True),
            TaskRedone(2.0, uid="wf/a#1", mode="new"),
            TaskUndone(2.0, uid="wf/b#1", reason="closure"),
            *heal_bracket(2.0)[1:],
        ]
        assert [realized_action(e) for e in events] == [
            None, None, None, None, None, "undo(wf/b#1)", None]
        _, violations = run_monitor(events)
        assert violations == []
        for slot in (TaskUndone(2.0, uid="wf/a#1", reason="abandoned"),
                     TaskRedone(2.0, uid="wf/a#1")):
            _, violations = run_monitor([*events[:3], slot, *events[5:]])
            assert "order-consistency" in {v.property for v in violations}

    def test_aliased_dispatches_do_not_false_positive(self):
        # An earlier heal may realize the same action string before
        # this edge's own before/after pair runs.
        edge = OrderConstraint(1.0, rule="T3.3",
                               before="undo(wf/t4#1)",
                               after="redo(wf/t4#1)")
        _, violations = run_monitor([
            edge,
            HealStarted(2.0, malicious=("wf/t4#1",)),
            TaskUndone(2.0, uid="wf/t4#1"),
            TaskRedone(2.0, uid="wf/t4#1"),
            *heal_bracket(2.0)[1:],
            HealStarted(4.0, malicious=("wf/t4#1",)),
            TaskUndone(4.0, uid="wf/t4#1"),
            TaskRedone(4.0, uid="wf/t4#1"),
            *heal_bracket(4.0)[1:],
        ])
        assert violations == []


# --------------------------------------------------------------------------
# Replay identity: online == offline
# --------------------------------------------------------------------------


event_st = st.one_of(
    st.builds(HealStarted, st.just(0.0), malicious=st.just(("u1",))),
    st.builds(HealFinished, st.just(0.0), undone=st.integers(0, 3),
              redone=st.integers(0, 3), kept=st.just(0),
              abandoned=st.just(0), new_executions=st.just(0),
              duration=st.just(0.0)),
    st.builds(TaskUndone, st.just(0.0),
              uid=st.sampled_from(["u1", "u2"]),
              reason=st.sampled_from(["", "closure", "abandoned"]),
              disposition=st.booleans()),
    st.builds(TaskRedone, st.just(0.0),
              uid=st.sampled_from(["u1", "u2"]),
              mode=st.sampled_from(["redo", "new"])),
    st.builds(UndoDecision, st.just(0.0),
              uid=st.sampled_from(["u1", "u2"]),
              condition=st.sampled_from(["T1.1", "T1.2", "T1.3", "T1.4"])),
    st.builds(RedoDecision, st.just(0.0),
              uid=st.sampled_from(["u1", "u2"]),
              condition=st.sampled_from(["T2.1", "T2.2"])),
    st.builds(OrderConstraint, st.just(0.0), rule=st.just("T3.1"),
              before=st.sampled_from(["undo(u1)", "redo(u1)"]),
              after=st.sampled_from(["undo(u1)", "redo(u1)"])),
    st.builds(NormalTaskRefused, st.just(0.0),
              state=st.sampled_from(["NORMAL", "SCAN", "RECOVERY"])),
)


class TestReplayIdentity:
    @settings(max_examples=120, deadline=None)
    @given(events=st.lists(event_st, max_size=12),
           finalize=st.booleans())
    def test_online_equals_offline_on_random_streams(self, events,
                                                     finalize):
        online, _ = run_monitor(events, finalize=finalize)
        offline = replay_conformance(events, finalize=finalize)
        assert offline.violations == online.violations
        assert offline.summary() == online.summary()

    @settings(max_examples=60, deadline=None)
    @given(events=st.lists(event_st, max_size=10))
    def test_recorded_violations_are_skipped_on_replay(self, events):
        # Replaying a stream that already contains the monitor's own
        # output must not double-report.
        online, recorded = run_monitor(events, finalize=False)
        stream = list(events) + list(recorded)
        offline = replay_conformance(stream, finalize=False)
        assert offline.violations == online.violations

    def test_finalize_is_idempotent(self):
        monitor, _ = run_monitor(
            [UndoDecision(1.0, uid="u1", condition="T1.1")]
        )
        count = monitor.violation_count
        assert monitor.finalize() == []
        assert monitor.violation_count == count

    def test_attached_monitor_publishes_typed_violations(self):
        bus = EventBus()
        recorder = EventRecorder().attach(bus)
        monitor = ConformanceMonitor().attach(bus)
        bus.publish(TaskUndone(1.0, uid="u1"))
        monitor.finalize()
        published = [e for e in recorder.events
                     if isinstance(e, ConformanceViolation)]
        assert [v.property for v in published] == ["task-within-heal"]
        assert monitor.violations == published


def rv_verdict(f):
    """The RV-LTL verdict of a progression state, from its formula."""
    if f is TRUE:
        return Verdict.SATISFIED
    if f is FALSE:
        return Verdict.VIOLATED
    return (Verdict.PRESUMABLY_TRUE if eval_empty(f)
            else Verdict.PRESUMABLY_FALSE)


def unrouted_findings(events, finalize):
    """Every event through every property of one pack, in pack order —
    the monitor's semantics before events were routed by type."""
    pack = strict_property_pack()
    out = []
    for event in events:
        for prop_ in pack:
            out.extend((f.prop, f.verdict, f.instance, f.detail)
                       for f in prop_.consume(event))
    if finalize:
        for prop_ in pack:
            out.extend((f.prop, f.verdict, f.instance, f.detail)
                       for f in prop_.finalize())
    return out


class TestSharedTable:
    @settings(max_examples=300, deadline=None)
    @given(f=formula_st, trace=trace_st)
    def test_table_matches_progression_after_every_step(self, f, trace):
        automaton = MonitorAutomaton(f)
        expected = f
        assert automaton.state == expected
        assert automaton.verdict is rv_verdict(expected)
        for letter in trace:
            expected = progress(expected, letter)
            automaton.step(letter)
            assert automaton.state == expected
            assert automaton.verdict is rv_verdict(expected)

    @settings(max_examples=100, deadline=None)
    @given(f=formula_st)
    def test_automata_of_one_formula_share_one_table(self, f):
        a, b = MonitorAutomaton(f), MonitorAutomaton(f)
        assert a.dfa is b.dfa is monitor_dfa(f)
        assert a.formula == f and a.alphabet == atoms(f)

    def test_structurally_equal_packs_share_tables(self):
        a, b = strict_property_pack(), strict_property_pack()
        for left, right in zip(a, b):
            if hasattr(left, "automaton"):
                assert left.automaton.dfa is right.automaton.dfa
            if hasattr(left, "slices"):
                assert left._dfa is right._dfa

    @settings(max_examples=100, deadline=None)
    @given(letter=letter_st,
           extra=st.dictionaries(st.sampled_from(["c", "zz", "hs"]),
                                 st.booleans()))
    def test_atoms_outside_the_alphabet_do_not_change_the_mask(
            self, letter, extra):
        dfa = monitor_dfa(until(prop("a"), prop("b")))
        assert dfa.mask({**extra, **letter}) == dfa.mask(letter)
        assert dfa.mask({}) == 0

    @settings(max_examples=120, deadline=None)
    @given(events=st.lists(event_st, max_size=12),
           finalize=st.booleans())
    def test_packs_of_two_monitors_agree(self, events, finalize):
        first, second = ConformanceMonitor(), ConformanceMonitor()
        for event in events:
            first.consume(event)
            second.consume(event)
        if finalize:
            first.finalize()
            second.finalize()
        assert first.violations == second.violations
        assert first.summary() == second.summary()

    @settings(max_examples=120, deadline=None)
    @given(events=st.lists(event_st, max_size=12),
           finalize=st.booleans())
    def test_routing_by_type_keeps_violation_order(self, events,
                                                    finalize):
        monitor, _ = run_monitor(events, finalize=finalize)
        assert [
            (v.property, v.verdict, v.instance, v.detail)
            for v in monitor.violations
        ] == unrouted_findings(events, finalize)

    def test_reads_cover_exactly_the_consumed_types(self):
        read = set()
        for prop_ in strict_property_pack():
            read.update(prop_.reads)
        assert read == set(ConformanceMonitor.CONSUMES)


class TestConformanceProfileGate:
    """``check_regression.py`` gates the monitor's own bench row."""

    @staticmethod
    def profile(conformance):
        rows = [
            {"scenario": "fullstack", "digest_stable": True,
             "line_items": {"closure_recomputations": 3,
                            "closure_recomputations_per_alert": 0.05,
                            "index_builds_per_heal": 1.0,
                            "actions_planned": 0,
                            "undo_analyses_per_heal": 1.0}},
            {"scenario": "fullstack-observed", "digest_stable": True,
             "line_items": {"orders_per_heal": 1.0,
                            "plan_wall_s": 0.0, "plan_calls": 4,
                            "undo_analyses_per_heal": 1.0}},
            {"scenario": "batch-parallel", "digest_stable": True,
             "line_items": {"fan_out_overhead_s": 0.0}},
            {"scenario": "store-scaling", "digest_stable": True,
             "line_items": {"short_per_heal": 12.0,
                            "long_per_heal": 11.0}},
            {"scenario": "fleet-observe", "digest_stable": True,
             "line_items": {"replay_share": 0.1,
                            "events_per_healed_alert": 18.0}},
        ]
        if conformance is not None:
            rows.append({"scenario": "conformance", "digest_stable": True,
                         "line_items": conformance})
        return {"results": rows}

    def test_clean_row_passes(self):
        from benchmarks.check_regression import check_profile

        assert check_profile(self.profile({
            "events": 10, "monitor_wall_s": 0.01, "events_per_s": 1e3,
            "violations": 0,
        }), None) == []

    def test_missing_row_fails(self):
        from benchmarks.check_regression import check_profile

        failures = check_profile(self.profile(None), None)
        assert len(failures) == 1
        assert "no conformance row" in failures[0]

    @pytest.mark.parametrize("items", [{"violations": 2}, {}])
    def test_violations_fail(self, items):
        from benchmarks.check_regression import check_profile

        failures = check_profile(self.profile(items), None)
        assert len(failures) == 1
        assert "profile conformance" in failures[0]


class TestFleetObserveGate:
    """``check_regression.py`` gates what observing costs the fleet."""

    @staticmethod
    def profile(items, params=None):
        doc = TestConformanceProfileGate.profile({"violations": 0})
        row = doc["results"][-2]
        assert row["scenario"] == "fleet-observe"
        if items is None:
            doc["results"].remove(row)
        else:
            row["line_items"] = items
            row["params"] = params
        return doc

    def test_row_within_budget_passes(self):
        from benchmarks.check_regression import (
            MAX_EVENTS_PER_HEALED_ALERT,
            MAX_OBSERVE_SHARE,
            check_profile,
        )

        assert check_profile(self.profile({
            "replay_share": MAX_OBSERVE_SHARE,
            "events_per_healed_alert": MAX_EVENTS_PER_HEALED_ALERT,
        }), None) == []

    @pytest.mark.parametrize("items, shown", [
        ({"replay_share": 0.21, "events_per_healed_alert": 18.0},
         "replay_share 0.21"),
        ({"events_per_healed_alert": 18.0}, "replay_share None"),
        ({"replay_share": 0.1, "events_per_healed_alert": 21.5},
         "21.5 events per healed alert"),
        ({"replay_share": 0.1}, "None events per healed alert"),
    ])
    def test_over_budget_or_missing_item_fails(self, items, shown):
        from benchmarks.check_regression import check_profile

        failures = check_profile(self.profile(items), None)
        assert len(failures) == 1
        assert shown in failures[0]

    def test_missing_row_fails(self):
        from benchmarks.check_regression import check_profile

        failures = check_profile(self.profile(None), None)
        assert len(failures) == 1
        assert "no fleet-observe row" in failures[0]

    def test_more_events_than_the_committed_row_fails(self):
        from benchmarks.check_regression import check_profile

        params = {"tenants": 20, "duration": 25.0, "seed": 7}
        base = self.profile({"replay_share": 0.1,
                             "events_per_healed_alert": 18.0}, params)
        fresh = self.profile({"replay_share": 0.1,
                              "events_per_healed_alert": 18.2}, params)
        failures = check_profile(fresh, base)
        assert len(failures) == 1
        assert "18.2 events per healed alert, above 18.0" in failures[0]
        other = dict(params, tenants=21)
        fresh["results"][-2]["params"] = other
        assert check_profile(fresh, base) == []


class TestCampaignReplayIdentity:
    """End-to-end: fuzz episodes record what offline replay re-derives."""

    @pytest.mark.parametrize("index", [0, 3, 5])
    def test_honest_campaigns_record_clean_and_identical(self, index):
        from repro.obs.recorder import read_flight_log
        from repro.scenarios.fuzz import _run_single_episode
        from repro.scenarios.generate import generate_campaign

        episode = _run_single_episode(
            generate_campaign(0, index=index, multi_tenant_every=0)
        )
        assert episode.conformance_violations == 0
        log = read_flight_log(episode.flight_text)
        assert log.meta["conformance_finalized"] is True
        recorded = [e for e in log.events
                    if isinstance(e, ConformanceViolation)]
        offline = replay_conformance(log.events, finalize=True)
        assert offline.violations == recorded == []

    def test_mutated_campaign_replays_its_violations(self):
        from repro.obs.recorder import read_flight_log
        from repro.scenarios.fuzz import (
            _run_single_episode,
            inject_mutation,
        )
        from repro.scenarios.generate import generate_campaign

        campaign = generate_campaign(1000, index=0, multi_tenant_every=0)
        with inject_mutation("drop-undo") as stats:
            episode = _run_single_episode(campaign)
        assert stats["applied"] >= 1
        assert episode.conformance_violations > 0
        log = read_flight_log(episode.flight_text)
        recorded = [e for e in log.events
                    if isinstance(e, ConformanceViolation)]
        offline = replay_conformance(log.events, finalize=True)
        assert offline.violations == recorded
        assert "undo-completeness" in {
            v.property for v in offline.violations
        }


# --------------------------------------------------------------------------
# Pipeline integration
# --------------------------------------------------------------------------


class TestPipelineIntegration:
    def test_pack_is_the_seven_definition_2_properties(self):
        assert [p.name for p in ConformanceMonitor().properties] == [
            "heal-alternation", "task-within-heal", "normal-refusal",
            "undo-completeness", "redo-follow-through",
            "undo-before-redo", "order-consistency",
        ]
        assert set(ConformanceMonitor().summary()) == {
            "violations", "by_property", "pending_obligations",
            "events_seen", "finalized",
        }

    def test_property_pack_is_fresh_per_monitor(self):
        a, b = ConformanceMonitor(), ConformanceMonitor()
        assert a.properties is not b.properties
        names = [p.name for p in strict_property_pack()]
        assert len(names) == len(set(names))

    def test_batch_conformance_is_worker_invariant(self):
        from repro.obs.health import ModelPrediction
        from repro.sim.batch import run_fullstack_batch
        from repro.sim.fullstack import FullStackConfig

        config = FullStackConfig(arrival_rate=1.0)
        health = ModelPrediction.from_stg(config.stg())
        serial = run_fullstack_batch(config, horizon=40.0,
                                     replications=2, workers=1,
                                     seed=3, health=health)
        pooled = run_fullstack_batch(config, horizon=40.0,
                                     replications=2, workers=2,
                                     seed=3, health=health)
        assert serial.conformance is not None
        assert serial.conformance == pooled.conformance
        assert serial.conformance.violations == 0

    def test_health_monitor_surfaces_conformance_slo(self):
        from repro.markov.stg import RecoverySTG
        from repro.obs.health import (
            HealthMonitor,
            ModelPrediction,
            SloState,
        )

        bus = EventBus()
        monitor = HealthMonitor(
            ModelPrediction.from_stg(RecoverySTG.paper_default())
        ).attach(bus)
        assert monitor.slos["conformance"].state is SloState.OK
        bus.publish(TaskUndone(1.0, uid="u1"))  # outside any bracket
        assert monitor.slos["conformance"].state is SloState.BREACH
        report = monitor.report()
        assert report.violations == 1
        assert ("conformance", "BREACH") in report.slo_states
