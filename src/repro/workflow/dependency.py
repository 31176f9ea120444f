"""Data and control dependencies (Definition 1 and Section II-D).

Two layers are provided:

**Spec level** — :class:`ControlDependencies` computes ``t_i →c t_j`` over a
workflow graph: ``t_j`` is control dependent on every branch node that
dominates it, unless ``t_j`` is unavoidable (on all execution paths).  The
relation is transitive by construction.

**Log level** — :class:`DependencyAnalyzer` computes data dependences
between committed task instances.  Because the system log records the exact
version every instance read and wrote, the primary flow relation is the
*reads-from* relation (``t_j`` read a version written by ``t_i``), which is
the semantics the paper's damage-tracing examples use.  The literal
set-algebra forms of Definition 1 (with the interposed-writers union) are
also provided for completeness and are related to the version-based forms
in the test suite.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import RecoveryError
from repro.workflow.dominators import dominators, unavoidable_nodes
from repro.workflow.log import LogRecord, RecordKind, SystemLog
from repro.workflow.spec import WorkflowSpec

__all__ = [
    "DependencyKind",
    "DependencyEdge",
    "ControlDependencies",
    "DependencyAnalyzer",
]


class DependencyKind(str, Enum):
    """The four dependence relations of the paper."""

    FLOW = "flow"          # →f : t_j reads what t_i wrote
    ANTI = "anti"          # →a : t_j overwrites what t_i read
    OUTPUT = "output"      # →o : t_j overwrites what t_i wrote
    CONTROL = "control"    # →c : t_j's execution decided by branch t_i


@dataclass(frozen=True)
class DependencyEdge:
    """A directed dependence ``src → dst`` of a given kind.

    ``src`` and ``dst`` are task-instance uids; ``objects`` lists the data
    objects that realize a data dependence (empty for control edges).
    """

    src: str
    dst: str
    kind: DependencyKind
    objects: FrozenSet[str] = frozenset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        via = f" via {sorted(self.objects)}" if self.objects else ""
        return f"{self.src} -{self.kind.value}-> {self.dst}{via}"


class ControlDependencies:
    """Spec-level control dependency ``→c`` for one workflow graph.

    ``t_i →c t_j`` iff ``t_j`` is not unavoidable, ``t_i`` is a branch node
    (outdegree > 1), and ``t_i`` dominates ``t_j``.  With the dominator
    formulation the relation is already transitively closed, matching the
    paper's statement that ``→c`` is transitive.
    """

    def __init__(self, spec: WorkflowSpec) -> None:
        self._spec = spec
        self._unavoidable = unavoidable_nodes(spec)
        doms = dominators(spec)
        branches = spec.branch_nodes
        controllers: Dict[str, FrozenSet[str]] = {}
        for node in spec.tasks:
            if node in self._unavoidable:
                controllers[node] = frozenset()
            else:
                controllers[node] = frozenset(
                    d for d in doms[node] if d != node and d in branches
                )
        self._controllers = controllers

    @property
    def spec(self) -> WorkflowSpec:
        """The workflow specification analyzed."""
        return self._spec

    @property
    def unavoidable(self) -> FrozenSet[str]:
        """Tasks on every execution path (never control dependent)."""
        return self._unavoidable

    def controllers_of(self, task_id: str) -> FrozenSet[str]:
        """All ``t_i`` with ``t_i →c task_id`` (transitively closed)."""
        return self._controllers[task_id]

    def depends(self, controller: str, dependent: str) -> bool:
        """Does ``controller →c dependent`` hold?"""
        return controller in self._controllers[dependent]

    def dependents_of(self, task_id: str) -> FrozenSet[str]:
        """All ``t_j`` with ``task_id →c t_j``."""
        return frozenset(
            t for t, ctrl in self._controllers.items() if task_id in ctrl
        )


class DependencyAnalyzer:
    """Log-level dependence analysis across all workflows in the system.

    The analyzer indexes the log's normal records — version → writer,
    version → readers, object → writers in commit order, workflow
    instance → trace — and every query first indexes the records
    committed since the previous one.  One analyzer therefore serves a
    growing log, and each query costs in proportion to the edges it
    returns, not to the length of the log.

    Parameters
    ----------
    log:
        The system log to analyze (the analyzer never mutates it).
    specs:
        Mapping from *workflow instance id* to the
        :class:`~repro.workflow.spec.WorkflowSpec` that instance executes,
        read live, so instances registered later are visible.  Needed
        for control dependences; data dependences work without it.
    """

    def __init__(
        self,
        log: SystemLog,
        specs: Optional[Mapping[str, WorkflowSpec]] = None,
    ) -> None:
        self._log = log
        self._specs: Mapping[str, WorkflowSpec] = \
            specs if specs is not None else {}
        self._control_cache: Dict[str, ControlDependencies] = {}
        #: Log positions (records of every kind) indexed so far.
        self._indexed = 0
        self._records: List[LogRecord] = []
        self._by_uid: Dict[str, LogRecord] = {}
        self._writer_of_version: Dict[Tuple[str, int], str] = {}
        self._readers_of_version: Dict[Tuple[str, int],
                                       List[LogRecord]] = {}
        #: object → uids and seqs of its normal writers, in commit order.
        self._writers: Dict[str, List[str]] = {}
        self._writer_seqs: Dict[str, List[int]] = {}
        self._traces: Dict[str, List[LogRecord]] = {}
        self._extend()

    def _extend(self) -> None:
        """Index the normal records committed since the last call."""
        if len(self._log) == self._indexed:
            return
        new = self._log.since(self._indexed)
        self._indexed += len(new)
        for r in new:
            if r.kind != RecordKind.NORMAL:
                continue
            self._records.append(r)
            self._by_uid[r.uid] = r
            for name, ver in r.writes.items():
                self._writer_of_version[(name, ver)] = r.uid
                self._writers.setdefault(name, []).append(r.uid)
                self._writer_seqs.setdefault(name, []).append(r.seq)
            for key in r.reads.items():
                self._readers_of_version.setdefault(key, []).append(r)
            self._traces.setdefault(
                r.instance.workflow_instance, []).append(r)

    # -- basic access ---------------------------------------------------------

    @property
    def log(self) -> SystemLog:
        """The analyzed system log."""
        return self._log

    def record(self, uid: str) -> LogRecord:
        """Normal log record for ``uid``."""
        self._extend()
        try:
            return self._by_uid[uid]
        except KeyError:
            raise RecoveryError(f"uid {uid!r} not in analyzed log") from None

    def trace(self, workflow_instance: str) -> Tuple[LogRecord, ...]:
        """Normal records of one workflow instance, in commit order
        (:meth:`SystemLog.trace <repro.workflow.log.SystemLog.trace>`
        from the index)."""
        self._extend()
        return tuple(self._traces.get(workflow_instance, ()))

    def control_model(self, workflow_instance: str) -> ControlDependencies:
        """Control-dependency model for the spec run by ``workflow_instance``."""
        if workflow_instance not in self._control_cache:
            try:
                spec = self._specs[workflow_instance]
            except KeyError:
                raise RecoveryError(
                    f"no workflow spec registered for instance "
                    f"{workflow_instance!r}"
                ) from None
            self._control_cache[workflow_instance] = ControlDependencies(spec)
        return self._control_cache[workflow_instance]

    # -- version-based data dependences (primary) -------------------------------

    def flow_sources(self, uid: str) -> Tuple[DependencyEdge, ...]:
        """Edges ``t_i →f uid``: the writers of the versions ``uid`` read.

        Reads of version 0 values written before the log (initial data)
        have no source edge.
        """
        dst = self.record(uid)
        by_src: Dict[str, Set[str]] = {}
        for name, ver in dst.reads.items():
            src = self._writer_of_version.get((name, ver))
            if src is not None and src != uid:
                by_src.setdefault(src, set()).add(name)
        return tuple(
            DependencyEdge(src, uid, DependencyKind.FLOW, frozenset(objs))
            for src, objs in sorted(by_src.items())
        )

    def flow_dependents(self, uid: str) -> Tuple[DependencyEdge, ...]:
        """Edges ``uid →f t_j``: instances that read versions ``uid`` wrote."""
        src = self.record(uid)
        hits: Dict[int, Tuple[str, Set[str]]] = {}
        for key in src.writes.items():
            for r in self._readers_of_version.get(key, ()):
                if r.seq > src.seq:
                    hits.setdefault(r.seq, (r.uid, set()))[1].add(key[0])
        return self._edges(uid, DependencyKind.FLOW, hits)

    def anti_edges_from(self, uid: str) -> Tuple[DependencyEdge, ...]:
        """Edges ``uid →a t_j``: the *first* later writer of each object
        ``uid`` read."""
        src = self.record(uid)
        return self._edges(uid, DependencyKind.ANTI,
                           self._next_writers(src, src.reads))

    def output_edges_from(self, uid: str) -> Tuple[DependencyEdge, ...]:
        """Edges ``uid →o t_j``: the *next* writer of each object ``uid``
        wrote."""
        src = self.record(uid)
        return self._edges(uid, DependencyKind.OUTPUT,
                           self._next_writers(src, src.writes))

    def _next_writers(
        self, src: LogRecord, names: Iterable[str],
    ) -> Dict[int, Tuple[str, Set[str]]]:
        """The first writer after ``src`` of each object in ``names``,
        with the objects it is first for."""
        hits: Dict[int, Tuple[str, Set[str]]] = {}
        for name in names:
            seqs = self._writer_seqs.get(name)
            if seqs is None:
                continue
            i = bisect_right(seqs, src.seq)
            if i < len(seqs):
                hits.setdefault(seqs[i], (self._writers[name][i],
                                          set()))[1].add(name)
        return hits

    @staticmethod
    def _edges(
        uid: str, kind: DependencyKind,
        hits: Mapping[int, Tuple[str, Set[str]]],
    ) -> Tuple[DependencyEdge, ...]:
        """One edge per hit (seq → destination uid and objects), in
        commit order."""
        return tuple(
            DependencyEdge(uid, hits[seq][0], kind, frozenset(hits[seq][1]))
            for seq in sorted(hits)
        )

    def all_data_edges(self) -> Tuple[DependencyEdge, ...]:
        """Every flow / anti / output edge in the log, in source order."""
        self._extend()
        out: List[DependencyEdge] = []
        for r in self._records:
            out.extend(self.flow_dependents(r.uid))
            out.extend(self.anti_edges_from(r.uid))
            out.extend(self.output_edges_from(r.uid))
        return tuple(out)

    # -- literal Definition 1 forms ------------------------------------------

    def _between(self, a: LogRecord, b: LogRecord) -> Iterable[LogRecord]:
        return (r for r in self._records if a.seq < r.seq < b.seq)

    def literal_flow(self, uid_i: str, uid_j: str) -> bool:
        """Definition 1 verbatim: ``(W(t_i) ∪ ⋃ W(t_k)) ∩ R(t_j) ≠ ∅``
        for ``t_i ≺ t_k ≺ t_j``."""
        ti, tj = self.record(uid_i), self.record(uid_j)
        if ti.seq >= tj.seq:
            return False
        writes: Set[str] = set(ti.writes)
        for tk in self._between(ti, tj):
            writes |= set(tk.writes)
        return bool(writes & set(tj.reads))

    def literal_anti(self, uid_i: str, uid_j: str) -> bool:
        """Definition 1 verbatim: ``R(t_i) ∩ (W(t_j) ∪ ⋃ W(t_k)) ≠ ∅``."""
        ti, tj = self.record(uid_i), self.record(uid_j)
        if ti.seq >= tj.seq:
            return False
        writes: Set[str] = set(tj.writes)
        for tk in self._between(ti, tj):
            writes |= set(tk.writes)
        return bool(set(ti.reads) & writes)

    def literal_output(self, uid_i: str, uid_j: str) -> bool:
        """Definition 1 verbatim: ``(W(t_i) ∪ ⋃ W(t_k)) ∩ W(t_j) ≠ ∅``."""
        ti, tj = self.record(uid_i), self.record(uid_j)
        if ti.seq >= tj.seq:
            return False
        writes: Set[str] = set(ti.writes)
        for tk in self._between(ti, tj):
            writes |= set(tk.writes)
        return bool(writes & set(tj.writes))

    # -- closures ----------------------------------------------------------------

    def flow_closure(self, seeds: Iterable[str]) -> FrozenSet[str]:
        """All instances reachable from ``seeds`` via ``→f`` edges
        (``t_i →f* t_j``), *excluding* the seeds themselves unless they
        are re-reached."""
        seen: Set[str] = set()
        frontier: List[str] = list(seeds)
        while frontier:
            uid = frontier.pop()
            for edge in self.flow_dependents(uid):
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    frontier.append(edge.dst)
        return frozenset(seen)

    # -- control dependences over instances ------------------------------------

    def control_dependents(self, uid: str) -> Tuple[str, ...]:
        """Instances ``t_j`` in the same workflow trace with
        ``uid →c* t_j`` and ``uid ≺ t_j``."""
        src = self.record(uid)
        wf = src.instance.workflow_instance
        model = self.control_model(wf)
        out: List[str] = []
        for r in self._traces[wf]:
            if r.seq <= src.seq:
                continue
            if model.depends(src.instance.task_id, r.instance.task_id):
                out.append(r.uid)
        return tuple(out)

    def control_sources(self, uid: str) -> Tuple[str, ...]:
        """Instances ``t_i`` in the same trace with ``t_i →c* uid``."""
        dst = self.record(uid)
        wf = dst.instance.workflow_instance
        model = self.control_model(wf)
        out: List[str] = []
        for r in self._traces[wf]:
            if r.seq >= dst.seq:
                continue
            if model.depends(r.instance.task_id, dst.instance.task_id):
                out.append(r.uid)
        return tuple(out)
