"""Recovery provenance: deterministic replay and causal explanation.

A flight log (:mod:`repro.obs.recorder`) contains everything the
pipeline decided and did: which Theorem 1/2 condition fired per
undo/redo decision of each batch heal, which Theorem 3 rule added each
ordering edge of its order, every undo and redo the healer realized, in
order, and the raw pipeline events the metrics collector consumes.
This module turns a log back into:

- :func:`replay` — the reconstructed run: the heals' decided undo/redo
  sets, partial order (rule-tagged edge set), realized schedule, and a
  freshly rebuilt :class:`~repro.obs.metrics.PipelineMetrics` — the
  numbers every ``obs`` report prints;
- :func:`explain` — the causal chain for one task instance: alert →
  Theorem 1 condition (with the dependency path that carried the
  infection) → Theorem 2 decision → ordering constraints → realized
  schedule slot → execution outcome;
- :func:`build_span_tree` — the run's span tree (state dwells, and
  the detect → scan → heal(undo, redo) incident spans) reconstructed
  from the event timeline, for the ``obs`` report and the
  Chrome-trace exporter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import ObsError
from repro.obs.events import (
    AlertEnqueued,
    AlertLost,
    DriftDetected,
    HealFinished,
    HealStarted,
    ObsEvent,
    OrderConstraint,
    RedoDecision,
    ScanStep,
    SloTransition,
    StateTransition,
    TaskRedone,
    TaskUndone,
    UndoDecision,
    UnitEmitted,
    realized_action,
)
from repro.obs.metrics import Gauge, PipelineMetrics
from repro.obs.recorder import FlightLog
from repro.obs.tracing import Span

__all__ = ["ReplayedRun", "replay", "explain", "build_span_tree"]

#: Theorem 1 conditions that make an undo *definite* (vs candidate).
_DEFINITE_UNDO = ("T1.1", "T1.3")


@dataclass
class ReplayedRun:
    """Everything :func:`replay` reconstructs from a flight log.

    Attributes
    ----------
    header:
        The log's header record (schema, label, meta).
    events:
        The typed event stream, in log order.
    undo_decisions / redo_decisions / order_constraints:
        The provenance events, in decision order.
    plan_undo / plan_redo:
        The *definite* undo and redo sets the heals decided (Theorem 1
        conditions 1/3; Theorem 2 condition 1).
    undo_candidates / redo_candidates:
        Instances whose undo/redo was conditional (T1.2/T1.4; T2.2).
    order_edges:
        The Theorem 3 partial order as ``(rule, before, after)``
        triples over action strings.
    schedule:
        The realized schedule: the action strings of the healer's undo
        operations and log-position redos, in log order
        (:func:`~repro.obs.events.realized_action`).
    executed_undone / executed_redone:
        ``uid → reason`` / ``uid → mode`` for what the healer actually
        did (a candidate may be resolved either way).
    slo_transitions / drifts:
        The health monitor's verdict stream, in log order — every
        recorded :class:`~repro.obs.events.SloTransition` and
        :class:`~repro.obs.events.DriftDetected`.  Empty for logs of
        unmonitored runs.  :func:`repro.obs.health.replay_verdicts`
        recomputes the same stream from the log's *raw* events, which
        is how replay proves the recorded verdicts were earned.
    metrics:
        A fresh :class:`~repro.obs.metrics.PipelineMetrics` rebuilt by
        re-feeding the event stream between the log's ``start`` and
        ``finalize`` marks.
    """

    header: Dict[str, object]
    events: List[ObsEvent]
    undo_decisions: List[UndoDecision] = field(default_factory=list)
    redo_decisions: List[RedoDecision] = field(default_factory=list)
    order_constraints: List[OrderConstraint] = field(default_factory=list)
    plan_undo: FrozenSet[str] = frozenset()
    plan_redo: FrozenSet[str] = frozenset()
    undo_candidates: FrozenSet[str] = frozenset()
    redo_candidates: FrozenSet[str] = frozenset()
    order_edges: FrozenSet[Tuple[str, str, str]] = frozenset()
    schedule: Tuple[str, ...] = ()
    executed_undone: Dict[str, str] = field(default_factory=dict)
    executed_redone: Dict[str, str] = field(default_factory=dict)
    slo_transitions: List[SloTransition] = field(default_factory=list)
    drifts: List[DriftDetected] = field(default_factory=list)
    metrics: PipelineMetrics = field(default_factory=PipelineMetrics)


def replay(log: FlightLog) -> ReplayedRun:
    """Deterministically reconstruct a run from its flight log.

    The metrics collector is rebuilt by replaying the captured events
    through a fresh :class:`~repro.obs.metrics.PipelineMetrics`, with
    the log's ``start``/``finalize`` marks driving dwell accounting —
    exactly the inputs a collector on the run's bus would have seen,
    so the snapshot renders the same Prometheus exposition and summary
    rows.
    """
    run = ReplayedRun(header=dict(log.header), events=list(log.events))

    start = log.mark("start")
    if start is not None:
        run.metrics.start(float(start["time"]),
                          state=str(start.get("state", "NORMAL")))
    for event in log.events:
        run.metrics(event)
        if isinstance(event, UndoDecision):
            run.undo_decisions.append(event)
        elif isinstance(event, RedoDecision):
            run.redo_decisions.append(event)
        elif isinstance(event, OrderConstraint):
            run.order_constraints.append(event)
        elif isinstance(event, TaskUndone):
            run.executed_undone[event.uid] = event.reason
        elif isinstance(event, TaskRedone):
            run.executed_redone[event.uid] = event.mode
        elif isinstance(event, SloTransition):
            run.slo_transitions.append(event)
        elif isinstance(event, DriftDetected):
            run.drifts.append(event)
    finalize = log.mark("finalize")
    if finalize is not None:
        run.metrics.finalize(float(finalize["time"]))
        # Final gauge readings snapshotted by the recorder (gauges can
        # move on un-evented operations like queue pops).
        for name, value in (finalize.get("gauges") or {}).items():
            gauge = run.metrics.registry.get(name)
            if isinstance(gauge, Gauge):
                gauge.set(float(value))

    run.plan_undo = frozenset(
        d.uid for d in run.undo_decisions if d.condition in _DEFINITE_UNDO
    )
    run.undo_candidates = frozenset(
        d.uid for d in run.undo_decisions
        if d.condition not in _DEFINITE_UNDO
    ) - run.plan_undo
    run.plan_redo = frozenset(
        d.uid for d in run.redo_decisions if d.condition == "T2.1"
    )
    run.redo_candidates = frozenset(
        d.uid for d in run.redo_decisions if d.condition == "T2.2"
    )
    run.order_edges = frozenset(
        (c.rule, c.before, c.after) for c in run.order_constraints
    )
    run.schedule = tuple(
        action for action in map(realized_action, run.events)
        if action is not None
    )
    return run


def _mentions(action_str: str, uid: str) -> bool:
    """Does an action string (``undo(uid)`` / ``redo(uid)`` / bare
    normal uid) refer to ``uid``?"""
    return action_str in (f"undo({uid})", f"redo({uid})", uid)


def explain(log: FlightLog, uid: str) -> str:
    """The causal chain that led to ``uid``'s recovery, as text.

    Walks the provenance captured in ``log``: the triggering alert (or
    the dependency path back to one), every Theorem 1/2 condition that
    fired for ``uid``, every Theorem 3 ordering edge touching its
    actions, its slot(s) in the realized schedule, and what the healer
    finally did.  Raises :class:`~repro.errors.ObsError` when the log
    never mentions ``uid``.
    """
    run = replay(log)
    lines: List[str] = [uid]

    alerted = {
        e.uid for e in run.events if isinstance(e, AlertEnqueued)
    }
    if uid in alerted:
        lines.append("  alert: reported malicious by the IDS")

    undo_ds = [d for d in run.undo_decisions if d.uid == uid]
    redo_ds = [d for d in run.redo_decisions if d.uid == uid]
    for d in undo_ds:
        desc = {
            "T1.1": "directly malicious (Theorem 1 cond. 1)",
            "T1.2": "control candidate (Theorem 1 cond. 2)",
            "T1.3": "infected via data flow (Theorem 1 cond. 3)",
            "T1.4": "stale-read candidate (Theorem 1 cond. 4)",
        }.get(d.condition, d.condition)
        line = f"  undo[{d.condition}]: {desc}"
        if d.via:
            line += " via " + " -> ".join(d.via + (uid,))
        if d.objects:
            line += " through objects {" + ", ".join(d.objects) + "}"
        lines.append(line)
        # Tie the chain back to its alert seed.
        seed = d.via[0] if d.via else uid
        if seed != uid and seed in alerted:
            lines.append(f"    seeded by alert on {seed}")
    for d in redo_ds:
        desc = {
            "T2.1": "not control dependent on another bad instance "
                    "(Theorem 2 cond. 1) — definitely redone",
            "T2.2": "control dependent on bad instance(s) "
                    "(Theorem 2 cond. 2) — redo decided by re-execution",
        }.get(d.condition, d.condition)
        line = f"  redo[{d.condition}]: {desc}"
        if d.via:
            line += " [controlled by " + ", ".join(d.via) + "]"
        lines.append(line)

    edges = [
        c for c in run.order_constraints
        if _mentions(c.before, uid) or _mentions(c.after, uid)
    ]
    for c in edges:
        lines.append(f"  order[{c.rule}]: {c.before} < {c.after}")

    for slot, action in enumerate(run.schedule):
        if _mentions(action, uid):
            lines.append(f"  scheduled: {action} at slot {slot} of the "
                         "realized schedule")

    if uid in run.executed_undone:
        reason = run.executed_undone[uid]
        lines.append(f"  executed: undone"
                     + (f" ({reason})" if reason else ""))
    if uid in run.executed_redone:
        mode = run.executed_redone[uid]
        lines.append(f"  executed: redone"
                     + (" (new path)" if mode == "new" else ""))

    if len(lines) == 1:
        raise ObsError(
            f"flight log never mentions instance {uid!r} — nothing to "
            "explain (known instances appear in undo/redo decisions, "
            "order constraints, or task events)"
        )
    return "\n".join(lines)


def build_span_tree(log: FlightLog) -> List[Span]:
    """Reconstruct a span tree from a flight log's event timeline.

    The tree is derived, not recorded.  One root span covers the run
    (``start`` mark to ``finalize`` mark, falling back to first/last
    event time).  Its children are one span per contiguous state
    dwell, then the incident spans in the order they open:

    - ``detect``: from an offered alert (``AlertEnqueued`` or
      ``AlertLost``) while none is open to the analyzer's next
      ``ScanStep`` (or ``UnitEmitted``, for abstract simulators that
      publish no scan steps);
    - ``scan``: one per ``ScanStep``, ending at the ``UnitEmitted``
      that queues its recovery unit;
    - ``heal``: ``HealStarted`` → ``HealFinished``, with an ``undo``
      and a ``redo`` child.  Task events are stamped when the
      operation starts, so each undo/redo runs until the next one (or
      the heal's finish); disposition-only notes are not operations.

    Spans still open when the log ends stay unfinished (a crashed
    heal, alerts never scanned).  Decision-level events are better
    rendered as instants — pass ``log.events`` to
    :func:`repro.obs.export.spans_to_chrome_trace` alongside the tree.
    """
    times = [e.time for e in log.events]
    start = log.mark("start")
    finalize = log.mark("finalize")
    t0 = float(start["time"]) if start is not None else (
        times[0] if times else 0.0
    )
    t1 = float(finalize["time"]) if finalize is not None else (
        times[-1] if times else t0
    )
    root = Span("run", t0, {"label": log.label})
    root.end = t1

    state = str(start.get("state", "NORMAL")) if start is not None \
        else "NORMAL"
    since = t0
    for event in log.events:
        if isinstance(event, StateTransition):
            dwell = Span("state:" + (event.old_category or event.old),
                         since)
            dwell.end = event.time
            root.children.append(dwell)
            state = event.new_category or event.new
            since = event.time
    closing = Span("state:" + state, since)
    closing.end = t1
    root.children.append(closing)

    detect: Optional[Span] = None
    scan: Optional[Span] = None
    scans = 0
    heal: Optional[Span] = None
    ops: List[Tuple[str, float]] = []  # the open heal's (kind, start)
    for event in log.events:
        if isinstance(event, (AlertEnqueued, AlertLost)):
            if detect is None:
                detect = Span("detect", event.time, {"alerts": 0})
                root.children.append(detect)
            detect.attributes["alerts"] += 1
        elif isinstance(event, (ScanStep, UnitEmitted)):
            if detect is not None:
                detect.end = event.time
                detect = None
            if isinstance(event, ScanStep):
                scans += 1
                scan = Span("scan", event.time,
                            {"step": scans, "uid": event.uid})
                root.children.append(scan)
            elif scan is not None:
                scan.end = event.time
                scan = None
        elif isinstance(event, HealStarted):
            heal = Span("heal", event.time,
                        {"malicious": ", ".join(event.malicious)})
            root.children.append(heal)
            ops = []
        elif heal is None:
            continue
        elif isinstance(event, TaskUndone):
            if not event.disposition:
                ops.append(("undo", event.time))
        elif isinstance(event, TaskRedone):
            ops.append(("redo", event.time))
        elif isinstance(event, HealFinished):
            heal.end = event.time
            heal.set_attribute("undone", event.undone)
            heal.set_attribute("redone", event.redone)
            heal.children = _operation_spans(ops, event.time)
            heal = None
    if heal is not None:  # crashed mid-heal: keep it, unfinished
        heal.children = _operation_spans(ops, None)
    return [root]


def _operation_spans(ops: List[Tuple[str, float]],
                     finished: Optional[float]) -> List[Span]:
    """The ``undo`` and ``redo`` children of one heal: each covers its
    kind's first operation to the end of its last, where an operation
    ends when the next one starts (or the heal finishes at
    ``finished``; ``None`` leaves the last one open)."""
    ends = [t for _, t in ops[1:]] + [finished]
    spans: List[Span] = []
    for name in ("undo", "redo"):
        mine = [(t, end) for (kind, t), end in zip(ops, ends)
                if kind == name]
        if mine:
            span = Span(name, mine[0][0], {"tasks": len(mine)})
            span.end = mine[-1][1]
            spans.append(span)
    return spans
