"""The compiled property pack against the LTLf it compiles.

:class:`~repro.obs.monitor.ConformanceMonitor` routes each event by type
to per-property handlers that step shared int tables on letters masked
once.  The reference here knows nothing of that: it steps each
property's formula (:func:`~repro.obs.monitor.pack_formulas`) by
:func:`~repro.obs.monitor.progress` on explicit letter dicts built from
each event, slices parametric properties by hand, and must produce the
same violation stream, finalize included.  A seeded fleet run then pins
online verdicts against both replays on every tenant.
"""

from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.control import FleetConfig, FleetControlPlane
from repro.fleet.workload import prediction_for
from repro.obs.events import (
    EventRecorder,
    HealFinished,
    HealStarted,
    NormalTaskRefused,
    OrderConstraint,
    RedoDecision,
    TaskRedone,
    TaskUndone,
    UndoDecision,
)
from repro.obs.health import replay_verdicts
from repro.obs.monitor import (
    DEFINITE_REDO_CONDITIONS,
    DEFINITE_UNDO_CONDITIONS,
    FALSE,
    TRUE,
    ConformanceMonitor,
    eval_empty,
    pack_formulas,
    progress,
    replay_conformance,
)

UIDS = ["u1", "u2", "u3"]
ACTIONS = [f"{kind}({uid})" for kind in ("undo", "redo") for uid in UIDS]


# -- the reference: formulas stepped by progression ---------------------------


def decided(state):
    return state is TRUE or state is FALSE


def finally_violated(state):
    return state is FALSE or (not decided(state) and not eval_empty(state))


class Whole:
    """One formula over the whole projection; reports once."""

    def __init__(self, name):
        self.name = name
        self.state = pack_formulas()[name]
        self.violated = False

    def step(self, letter, time, out):
        if self.violated:
            return
        self.state = progress(self.state, letter)
        if self.state is FALSE:
            self.violated = True
            out.append((self.name, "violated", "", time))

    def finalize(self, time, out):
        if not self.violated and finally_violated(self.state):
            self.violated = True
            out.append((self.name, "finally-violated", "", time))


class Sliced:
    """One formula per slice key; a decided slice never respawns."""

    def __init__(self, name):
        self.name = name
        self.formula = pack_formulas()[name]
        self.live = {}
        self.done = set()

    def spawn(self, key):
        if key not in self.live and key not in self.done:
            self.live[key] = self.formula

    def step(self, key, letter, time, out):
        if key not in self.live:
            return
        state = progress(self.live[key], letter)
        if not decided(state):
            self.live[key] = state
            return
        del self.live[key]
        self.done.add(key)
        if state is FALSE:
            out.append((self.name, "violated", key, time))

    def finalize(self, time, out):
        for key in sorted(self.live):
            if finally_violated(self.live[key]):
                out.append((self.name, "finally-violated", key, time))
        self.done.update(self.live)
        self.live.clear()


def reference_stream(events, finalize):
    """Every event through the formulas, in pack order."""
    alternation = Whole("heal-alternation")
    within = Whole("task-within-heal")
    refusal = Whole("normal-refusal")
    undo_done = Sliced("undo-completeness")
    redo_done = Sliced("redo-follow-through")
    undo_first = Sliced("undo-before-redo")
    ordered = Sliced("order-consistency")
    edges = []
    out = []
    now = 0.0
    for event in events:
        t = event.time
        now = max(now, t)
        if isinstance(event, (HealStarted, HealFinished)):
            start = isinstance(event, HealStarted)
            letter = {"hs": start, "hf": not start, "act": False}
            alternation.step(letter, t, out)
            within.step(letter, t, out)
        if isinstance(event, (TaskUndone, TaskRedone)):
            within.step({"hs": False, "hf": False, "act": True}, t, out)
        if isinstance(event, NormalTaskRefused):
            refusal.step({"bad": event.state == "NORMAL"}, t, out)
        if isinstance(event, UndoDecision):
            if event.condition in DEFINITE_UNDO_CONDITIONS:
                undo_done.spawn(event.uid)
        if isinstance(event, TaskUndone):
            undo_done.step(event.uid, {"undone": True}, t, out)
        if isinstance(event, RedoDecision):
            if event.condition in DEFINITE_REDO_CONDITIONS:
                redo_done.spawn(event.uid)
        if isinstance(event, TaskRedone) or (
                isinstance(event, TaskUndone)
                and event.reason == "abandoned"):
            redo_done.step(event.uid, {"done": True}, t, out)
        if isinstance(event, TaskUndone):
            undo_first.spawn(event.uid)
            undo_first.step(event.uid, {"undone": True, "redo": False},
                            t, out)
        if isinstance(event, TaskRedone) and event.mode == "redo":
            undo_first.spawn(event.uid)
            undo_first.step(event.uid, {"undone": False, "redo": True},
                            t, out)
        if isinstance(event, OrderConstraint):
            edge = (event.before, event.after)
            if edge not in edges:
                edges.append(edge)
            ordered.spawn(f"{event.before} < {event.after}")
        action = None
        if isinstance(event, TaskUndone) and not event.disposition:
            action = f"undo({event.uid})"
        if isinstance(event, TaskRedone) and event.mode == "redo":
            action = f"redo({event.uid})"
        if action is not None:
            for before, after in edges:
                if action in (before, after):
                    ordered.step(f"{before} < {after}",
                                 {"before": action == before,
                                  "after": action == after}, t, out)
    if finalize:
        for prop_ in (alternation, within, refusal, undo_done, redo_done,
                      undo_first, ordered):
            prop_.finalize(now, out)
    return out


# -- random streams over every consumed type ---------------------------------

uid_st = st.sampled_from(UIDS)

kind_st = st.one_of(
    st.builds(lambda: (HealStarted, {"malicious": ("u1",)})),
    st.builds(lambda: (HealFinished, {
        "undone": 1, "redone": 1, "kept": 0, "abandoned": 0,
        "new_executions": 0, "duration": 0.0})),
    st.builds(lambda uid, reason, disposition: (TaskUndone, {
        "uid": uid, "reason": reason, "disposition": disposition}),
        uid_st, st.sampled_from(["", "closure", "stale-read", "abandoned"]),
        st.booleans()),
    st.builds(lambda uid, mode: (TaskRedone, {"uid": uid, "mode": mode}),
              uid_st, st.sampled_from(["redo", "new"])),
    st.builds(lambda uid, cond: (UndoDecision, {
        "uid": uid, "condition": cond}),
        uid_st, st.sampled_from(["T1.1", "T1.2", "T1.3", "T1.4"])),
    st.builds(lambda uid, cond: (RedoDecision, {
        "uid": uid, "condition": cond}),
        uid_st, st.sampled_from(["T2.1", "T2.2"])),
    st.builds(lambda rule, before, after: (OrderConstraint, {
        "rule": rule, "before": before, "after": after}),
        st.sampled_from(["T3.1", "T3.3", "T3.4", "T3.5"]),
        st.sampled_from(ACTIONS), st.sampled_from(ACTIONS)),
    st.builds(lambda state: (NormalTaskRefused, {"state": state}),
              st.sampled_from(["NORMAL", "SCAN", "RECOVERY"])),
)

#: Streams with nondecreasing times, so a finding's stamp tells which
#: event triggered it.
stream_st = st.lists(st.tuples(kind_st, st.integers(0, 2)),
                     max_size=40).map(
    lambda items: [
        cls(float(t), **fields)
        for t, ((cls, fields), _) in zip(
            accumulate(gap for _, gap in items), items)
    ])


def pack_stream(events, finalize):
    monitor = ConformanceMonitor()
    for event in events:
        monitor.consume(event)
    if finalize:
        monitor.finalize()
    return [(v.property, v.verdict, v.instance, v.time)
            for v in monitor.violations]


class TestCompiledPack:
    @settings(max_examples=400, deadline=None)
    @given(events=stream_st, finalize=st.booleans())
    def test_matches_progression_on_explicit_letters(self, events,
                                                     finalize):
        assert pack_stream(events, finalize) == \
            reference_stream(events, finalize)

    def test_streams_reach_every_property(self):
        # The generator is able to violate each property at least once.
        events = [
            HealFinished(0.0, undone=0, redone=0, kept=0, abandoned=0,
                         new_executions=0, duration=0.0),
            TaskRedone(1.0, uid="u1"),
            NormalTaskRefused(2.0, state="NORMAL"),
            UndoDecision(3.0, uid="u2", condition="T1.1"),
            RedoDecision(3.0, uid="u3", condition="T2.1"),
            OrderConstraint(3.0, rule="T3.3", before="undo(u3)",
                            after="redo(u3)"),
            RedoDecision(4.0, uid="u4", condition="T2.1"),
            TaskRedone(5.0, uid="u3"),
            TaskUndone(6.0, uid="u3"),
        ]
        names = {name for name, *_ in pack_stream(events, True)}
        assert names == {
            "heal-alternation", "task-within-heal", "normal-refusal",
            "undo-completeness", "undo-before-redo", "order-consistency",
            "redo-follow-through",
        }
        assert pack_stream(events, True) == reference_stream(events, True)


class TestFleetReplay:
    def test_online_verdicts_equal_both_replays_on_every_tenant(self):
        plane = FleetControlPlane(FleetConfig(tenants=8, duration=12.0,
                                              tick=0.5, seed=11))
        recorders = [EventRecorder().attach(shard.bus)
                     for shard in plane.shards]
        report = plane.run()
        assert report.heals > 0
        checked = 0
        for recorder, shard in zip(recorders, plane.shards):
            events = recorder.events
            assert replay_verdicts(events, prediction_for(shard.profile),
                                   finalize=True) == shard.monitor.emitted
            replayed = replay_conformance(events)
            assert replayed.violations == shard.monitor.conformance.violations
            assert (replayed.events_seen
                    == shard.monitor.conformance.events_seen)
            checked += any(isinstance(e, OrderConstraint) for e in events)
        assert checked > 0
