"""Theorem 1 (undo tasks) and Theorem 2 (redo tasks).

Given the set ``B`` of malicious tasks reported by the IDS, Theorem 1
identifies every instance that generated incorrect data:

1. ``t ∈ B`` — directly malicious;
2. ``∃ t_i ∈ B`` with ``t_i →c* t_j`` and ``t_j ∉ succ(redo(t_i))`` —
   *candidate*: ``t_j`` sits on an execution path that the repaired branch
   may abandon;
3. ``∃ t_i ∈ B, t_i →f* t_j`` — infected through data flow;
4. ``∃ t_i ∈ B, ∃ t_k ∉ L`` with ``t_i →c* t_k``, ``t_k →f* t_j`` and
   ``t_k ∈ succ(redo(t_i))`` — *candidate*: ``t_j`` read data that the
   alternative path's ``t_k`` would have produced.

Conditions 2 and 4 depend on branch decisions taken during recovery, so
their members are *candidates* here; the
:class:`~repro.core.healer.Healer` resolves them by re-execution.

Theorem 2 then says which undone tasks are re-executed: those not control
dependent on another bad task (definite), and those control dependent on a
bad ``t_j`` but still on the re-executed path (candidates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.obs.events import RedoDecision, UndoDecision, trace_time
from repro.obs.perf import bump
from repro.workflow.dependency import DependencyAnalyzer

__all__ = [
    "StaleReadCandidate",
    "UndoAnalysis",
    "RedoAnalysis",
    "find_undo_tasks",
    "find_redo_tasks",
]


@dataclass(frozen=True)
class StaleReadCandidate:
    """One instantiation of Theorem 1 condition 4.

    ``bad_uid →c* unexecuted_task`` and ``unexecuted_task →f* reader_uid``:
    if the redo of ``bad_uid`` routes the workflow through
    ``unexecuted_task``, then ``reader_uid`` read data that is not up to
    date and must be undone.
    """

    bad_uid: str
    unexecuted_task: str
    reader_uid: str
    objects: FrozenSet[str]


@dataclass(frozen=True)
class UndoAnalysis:
    """Result of Theorem 1 over a log and a malicious set ``B``.

    Attributes
    ----------
    malicious:
        Condition 1 — the input set ``B`` (restricted to instances found
        in the log).
    infected:
        Condition 3 — flow closure of ``B`` (excluding ``B`` itself).
    control_candidates:
        Condition 2 — pairs ``(bad uid, dependent uid)``: the dependent is
        undone iff it falls off the path after ``redo(bad uid)``.
    stale_read_candidates:
        Condition 4 — see :class:`StaleReadCandidate`.
    """

    malicious: FrozenSet[str]
    infected: FrozenSet[str]
    control_candidates: FrozenSet[Tuple[str, str]]
    stale_read_candidates: FrozenSet[StaleReadCandidate]

    @property
    def definite(self) -> FrozenSet[str]:
        """Instances certain to need undo (conditions 1 and 3)."""
        return self.malicious | self.infected

    @property
    def candidates(self) -> FrozenSet[str]:
        """Instances whose undo is conditional on redo outcomes."""
        ctrl = {dep for _, dep in self.control_candidates}
        stale = {c.reader_uid for c in self.stale_read_candidates}
        return frozenset((ctrl | stale) - self.definite)

    @property
    def all_possible(self) -> FrozenSet[str]:
        """Upper bound on the undo set (definite plus all candidates)."""
        return self.definite | self.candidates


@dataclass(frozen=True)
class RedoAnalysis:
    """Result of Theorem 2 over an undo set.

    Attributes
    ----------
    definite:
        Condition 1 — undone instances not control dependent on any other
        bad instance; they are certainly re-executed.
    candidates:
        Condition 2 — pairs ``(controlling bad uid, dependent uid)``: the
        dependent is redone iff it remains on the re-executed path.
    """

    definite: FrozenSet[str]
    candidates: FrozenSet[Tuple[str, str]]

    @property
    def candidate_uids(self) -> FrozenSet[str]:
        """Instances whose redo depends on re-executed branch decisions."""
        return frozenset(dep for _, dep in self.candidates)


def _traced_flow_closure(
    analyzer: DependencyAnalyzer,
    seeds: FrozenSet[str],
    trace: List[UndoDecision],
) -> FrozenSet[str]:
    """Flow closure of ``seeds`` with one T1.3 provenance record per
    infected instance: the dependency path that first reached it and
    the data objects of the final edge.

    Produces exactly the same set as
    :meth:`~repro.workflow.dependency.DependencyAnalyzer.flow_closure`;
    only the bookkeeping differs.
    """
    parents: Dict[str, str] = {}
    stamp = trace_time(trace)
    infected = analyzer.flow_closure(seeds, parents) - seeds
    for uid in sorted(infected):
        chain: List[str] = []
        cur = uid
        while cur in parents and parents[cur] not in chain:
            cur = parents[cur]
            chain.append(cur)
            if cur in seeds:
                break
        trace.append(UndoDecision(
            stamp, uid=uid, condition="T1.3",
            via=tuple(reversed(chain)),
            objects=tuple(sorted(
                analyzer.flow_objects(parents[uid], uid))),
        ))
    return infected


def find_undo_tasks(
    analyzer: DependencyAnalyzer,
    malicious: Iterable[str],
    trace: Optional[List[UndoDecision]] = None,
) -> UndoAnalysis:
    """Apply Theorem 1: find definite and candidate undo instances.

    Parameters
    ----------
    analyzer:
        Dependency analyzer over the system log (with specs registered,
        needed for control dependences and condition 4).
    malicious:
        Uids of the instances reported malicious (the set ``B``).
    trace:
        Optional provenance sink: when given, one
        :class:`~repro.obs.events.UndoDecision` is appended per
        ``(instance, condition)`` that fired, carrying the dependency
        path and objects that triggered it, and stamped with the
        sink's time (:class:`~repro.obs.events.EventTrace`; ``0.0`` in
        a plain list).  ``None`` (default) records nothing and costs
        nothing.

    Each call bumps the ``undo_analyses`` counter, so a profile counts
    the Theorem 1 computations per heal.
    """
    bump("undo_analyses")
    log = analyzer.log
    bad_in_log = frozenset(u for u in malicious if u in log)
    stamp = trace_time(trace)

    if trace is not None:
        for bad in sorted(bad_in_log):
            trace.append(UndoDecision(stamp, uid=bad, condition="T1.1"))

    # Condition 3: flow closure of B.
    if trace is not None:
        infected = _traced_flow_closure(analyzer, bad_in_log, trace)
    else:
        infected = analyzer.flow_closure(bad_in_log) - bad_in_log

    closure = bad_in_log | infected

    # Condition 2: control dependents (in the log) of any bad task.
    control_candidates: Set[Tuple[str, str]] = set()
    for bad in sorted(closure):
        for dep in analyzer.control_dependents(bad):
            control_candidates.add((bad, dep))
            if trace is not None:
                trace.append(UndoDecision(
                    stamp, uid=dep, condition="T1.2", via=(bad,),
                ))

    # Condition 4: readers of data an unexecuted alternative-path task
    # would write.
    stale: Set[StaleReadCandidate] = set()
    for bad in sorted(closure):
        for t_k, writes_k in analyzer.unexecuted_controlled_writers(bad):
            # Potential direct flow t_k →f t_j: t_j read an object t_k
            # would write.  Extend transitively through the log's flow
            # edges from those direct readers.
            direct_readers = [
                (r.uid, writes_k.intersection(r.reads))
                for r in analyzer.readers_of(writes_k) if r.uid != bad
            ]
            transitive = analyzer.flow_closure(
                uid for uid, _ in direct_readers
            )
            for uid, objs in direct_readers:
                stale.add(StaleReadCandidate(bad, t_k, uid, objs))
                if trace is not None:
                    trace.append(UndoDecision(
                        stamp, uid=uid, condition="T1.4",
                        via=(bad, t_k),
                        objects=tuple(sorted(objs)),
                    ))
            for uid in sorted(transitive):
                if uid == bad:
                    continue
                stale.add(
                    StaleReadCandidate(bad, t_k, uid, frozenset())
                )
                if trace is not None:
                    trace.append(UndoDecision(
                        stamp, uid=uid, condition="T1.4",
                        via=(bad, t_k),
                    ))
    return UndoAnalysis(
        malicious=bad_in_log,
        infected=frozenset(infected),
        control_candidates=frozenset(control_candidates),
        stale_read_candidates=frozenset(stale),
    )


def find_redo_tasks(
    analyzer: DependencyAnalyzer,
    undo_set: Iterable[str],
    trace: Optional[List[RedoDecision]] = None,
) -> RedoAnalysis:
    """Apply Theorem 2: split the undo set into definite and candidate
    redos.

    Parameters
    ----------
    analyzer:
        Dependency analyzer over the system log.
    undo_set:
        The bad set ``B`` after Theorem 1 (definite undo instances).
    trace:
        Optional provenance sink: one
        :class:`~repro.obs.events.RedoDecision` per instance, naming
        the Theorem 2 condition (and for T2.2 the controlling bad
        instances) that decided it, stamped as in
        :func:`find_undo_tasks`.
    """
    bad = frozenset(undo_set)
    stamp = trace_time(trace)
    definite: Set[str] = set()
    candidates: Set[Tuple[str, str]] = set()
    for uid in sorted(bad):
        controllers = set(analyzer.control_sources(uid)) & bad
        controllers.discard(uid)
        if not controllers:
            definite.add(uid)  # condition 1
            if trace is not None:
                trace.append(RedoDecision(stamp, uid=uid,
                                          condition="T2.1"))
        else:
            for ctrl in sorted(controllers):
                candidates.add((ctrl, uid))  # condition 2
            if trace is not None:
                trace.append(RedoDecision(
                    stamp, uid=uid, condition="T2.2",
                    via=tuple(sorted(controllers)),
                ))
    return RedoAnalysis(
        definite=frozenset(definite),
        candidates=frozenset(candidates),
    )
