"""Theorem 3 — the partial order over recovery actions.

Theorem 3 constrains recovery actions against each other.  The rules,
with ``→`` any data/control dependence:

========  =====================================================================
Rule      Constraint
========  =====================================================================
T3.1      ``t_i ≺ t_j`` (log) ⇒ ``redo(t_i) ≺ redo(t_j)``
T3.2      ``t_i → t_j`` ⇒ ``redo(t_i) ≺ redo(t_j)``
T3.3      ``undo(t) ≺ redo(t)``
T3.4      ``t_i →a t_j`` ⇒ ``undo(t_j) ≺ redo(t_i)``
T3.5      ``t_i →o t_j`` ⇒ ``undo(t_j) ≺ undo(t_i)``
T3.6–10   dynamic control-path rules resolved during re-execution (the
          :class:`~repro.core.healer.Healer` enforces them operationally)
========  =====================================================================

The static rules (T3.1–T3.5) are materialized here as edges of a
:class:`~repro.workflow.precedence.PartialOrder` over
:class:`~repro.core.actions.Action` values.  Rules T3.6–T3.10 talk about
``succ(redo(t_i))`` — facts that only exist once redos execute — and are
enforced (and audited) dynamically by the healer.

Theorem 4 (normal tasks wait behind recovery of the data they touch) is
not materialized as edges: under strict correctness no normal task runs
until every reported alert is analysed and repaired, which
:meth:`~repro.system.SelfHealingSystem.normal_task_admissible` enforces
as one gate over the SCAN and RECOVERY states.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.core.actions import Action, ActionKind
from repro.obs.events import OrderConstraint, trace_time
from repro.workflow.dependency import DependencyAnalyzer
from repro.workflow.precedence import PartialOrder

__all__ = ["recovery_partial_order"]


def recovery_partial_order(
    analyzer: DependencyAnalyzer,
    undo_set: Iterable[str],
    redo_set: Iterable[str],
    trace: Optional[List[OrderConstraint]] = None,
) -> PartialOrder[Action]:
    """Build the Theorem 3 static partial order over recovery actions.

    Parameters
    ----------
    analyzer:
        Dependency analyzer over the (pre-recovery) system log.
    undo_set:
        Instances to undo.
    redo_set:
        Instances to redo; must be a subset of ``undo_set`` ∪ log (a redo
        without an undo is rejected by rule T3.3's premise).
    trace:
        Optional provenance sink: one
        :class:`~repro.obs.events.OrderConstraint` per edge added,
        tagged with the Theorem 3 rule (``"T3.1"``/``"T3.3"``/
        ``"T3.4"``/``"T3.5"``) that required it and stamped with the
        sink's time (:class:`~repro.obs.events.EventTrace`; ``0.0`` in
        a plain list).

    Returns
    -------
    PartialOrder[Action]
        Order containing one ``undo`` action per undo instance and one
        ``redo`` action per redo instance, with every applicable
        T3.1–T3.5 edge.  Guaranteed acyclic for consistent inputs;
        callers may re-check with
        :meth:`~repro.workflow.precedence.PartialOrder.check_acyclic`.
    """
    undos = frozenset(undo_set)
    redos = frozenset(redo_set)
    # Each action once per plan, looked up by uid below.
    undo_of = {uid: Action(ActionKind.UNDO, uid) for uid in sorted(undos)}
    redo_of = {uid: Action(ActionKind.REDO, uid) for uid in sorted(redos)}
    order: PartialOrder[Action] = PartialOrder(undo_of.values())
    order.add_elements(redo_of.values())

    # T3.3: undo(t) ≺ redo(t).  Edges go in batches, in the order
    # they are found: the order's sets keep insertion order.
    both = sorted(undos & redos)
    order.add_edges([(undo_of[uid], redo_of[uid]) for uid in both])

    # T3.1: log precedence between redo pairs, all r(r-1)/2 of them in
    # one insert.
    chain = sorted(redos, key=lambda u: analyzer.record(u).seq)
    order.add_chain([redo_of[uid] for uid in chain])

    # T3.2, T3.4, T3.5 from the log's data dependences: flow and
    # control are covered by the T3.1 edges (dependences imply ≺); anti
    # and output add undo-side constraints.
    data: List[Tuple[str, Action, Action]] = []
    for uid in sorted(undos | redos):
        if uid in redos:
            # t_i →a t_j: t_j modified data t_i read.
            for dst in analyzer.anti_successors(uid):
                if dst in undos:
                    data.append(("T3.4", undo_of[dst], redo_of[uid]))
        if uid in undos:
            # t_i →o t_j: both wrote the same object, t_j later.
            for dst in analyzer.output_successors(uid):
                if dst in undos:
                    data.append(("T3.5", undo_of[dst], undo_of[uid]))
    order.add_edges([(before, after) for _, before, after in data])

    if trace is not None:
        # The edges in the order they were added, T3.1 pair by pair.
        stamp = trace_time(trace)
        for uid in both:
            trace.append(OrderConstraint(
                stamp, "T3.3", f"undo({uid})", f"redo({uid})"))
        names = [f"redo({uid})" for uid in chain]
        for i, earlier in enumerate(names):
            for later in names[i + 1:]:
                trace.append(OrderConstraint(stamp, "T3.1", earlier, later))
        for rule, before, after in data:
            trace.append(OrderConstraint(stamp, rule, str(before),
                                         str(after)))
    return order
