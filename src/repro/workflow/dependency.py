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

import weakref
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
    Set,
    Tuple,
)

from repro.errors import RecoveryError
from repro.workflow.dominators import dominators, unavoidable_nodes
from repro.workflow.log import LogRecord, SystemLog
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
    paper's statement that ``→c`` is transitive.  The model keeps no
    reference to its spec, so the analyzers' shared models (one per
    graph shape) keep no spec alive.
    """

    def __init__(self, spec: WorkflowSpec) -> None:
        unavoidable = unavoidable_nodes(spec)
        doms = dominators(spec)
        branches = spec.branch_nodes
        controllers: Dict[str, FrozenSet[str]] = {}
        for node in spec.tasks:
            if node in unavoidable:
                controllers[node] = frozenset()
            else:
                controllers[node] = frozenset(
                    d for d in doms[node] if d != node and d in branches
                )
        self._controllers = controllers

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


class _SharedModel:
    """One graph shape's control model and its count of live specs."""

    __slots__ = ("model", "specs")

    def __init__(self, model: ControlDependencies) -> None:
        self.model = model
        self.specs = 0


#: Control models shared by every analyzer, keyed by graph shape: the
#: task ids in declaration order and the edges, all that
#: :class:`ControlDependencies` reads.  A fleet or fullstack attack
#: builds a fresh spec object, but of a handful of shapes.  A weak
#: reference per spec counts it out when it dies, and the shape's entry
#: goes with its last spec.
_Shape = Tuple[Tuple[str, ...], FrozenSet[Tuple[str, str]]]
_CONTROL_MODELS: Dict[_Shape, _SharedModel] = {}
#: Per live spec object: its weak reference and its shape's model (the
#: fast path of the lookup, taken on every control query).
_SPEC_MODELS: Dict[int, Tuple[weakref.ref, ControlDependencies]] = {}


def _control_model_of(spec: WorkflowSpec) -> ControlDependencies:
    key = id(spec)
    entry = _SPEC_MODELS.get(key)
    if entry is not None:
        return entry[1]
    shape: _Shape = (tuple(spec.tasks), spec.edges)
    shared = _CONTROL_MODELS.get(shape)
    if shared is None:
        shared = _CONTROL_MODELS[shape] = _SharedModel(
            ControlDependencies(spec))
    shared.specs += 1

    def release(_ref: weakref.ref) -> None:
        _SPEC_MODELS.pop(key, None)
        shared.specs -= 1
        if not shared.specs:
            _CONTROL_MODELS.pop(shape, None)

    _SPEC_MODELS[key] = (weakref.ref(spec, release), shared.model)
    return shared.model


class DependencyAnalyzer:
    """Log-level dependence analysis across all workflows in the system.

    The analyzer is a snapshot: it indexes the log's normal records
    once, when it is built — version → writer, writer → readers,
    object → writers in commit order, workflow instance → trace — and
    every query answers from that index, so each costs in proportion
    to the edges it returns, not to the length of the log.  Normal
    records committed after the build are not seen.  A batch heal
    builds its index at the start of Phase A and commits only UNDO and
    REDO records after that, so one index serves the whole heal.

    The per-record facts that recovery planning asks for again and
    again — first later writers, control sources and dependents and
    Theorem 1 condition 4's alternatives — are memoised on first use,
    and the object → readers index behind :meth:`readers_of` is built
    on its first call.

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
        self._records = log.normal_records()
        self._by_uid: Dict[str, LogRecord] = {}
        #: (object, version) → its latest writer; earlier writers of a
        #: version written twice (hand-built logs only) in _rewritten.
        self._writer_of_version: Dict[Tuple[str, int], str] = {}
        self._rewritten: Dict[Tuple[str, int], List[str]] = {}
        #: uid → uids that read a version it wrote, in commit order.
        self._readers: Dict[str, List[str]] = {}
        #: object → uids and seqs of its normal writers, in commit order.
        self._writers: Dict[str, List[str]] = {}
        self._writer_seqs: Dict[str, List[int]] = {}
        self._traces: Dict[str, List[LogRecord]] = {}
        # Per-record memos (see the class docstring), filled on first use.
        self._anti: Dict[str, Tuple[str, ...]] = {}
        self._output: Dict[str, Tuple[str, ...]] = {}
        self._sources: Dict[str, Tuple[str, ...]] = {}
        self._dependents: Dict[str, Tuple[str, ...]] = {}
        self._alternatives: Dict[
            str, Tuple[Tuple[str, FrozenSet[str]], ...]] = {}
        self._object_readers: Optional[Dict[str, List[LogRecord]]] = None
        writer_of_version = self._writer_of_version
        rewritten = self._rewritten
        readers = self._readers
        for r in self._records:
            uid = r.uid
            self._by_uid[uid] = r
            # Reads before writes: a record is never its own reader.
            for key in r.reads.items():
                src = writer_of_version.get(key)
                if src is None:
                    continue
                for src in rewritten.get(key, (src,)):
                    row = readers.get(src)
                    if row is None:
                        readers[src] = [uid]
                    elif row[-1] != uid:
                        row.append(uid)
            for key in r.writes.items():
                prior = writer_of_version.get(key)
                if prior is not None:
                    rewritten.setdefault(key, [prior]).append(uid)
                writer_of_version[key] = uid
                name = key[0]
                self._writers.setdefault(name, []).append(uid)
                self._writer_seqs.setdefault(name, []).append(r.seq)
            self._traces.setdefault(
                r.instance.workflow_instance, []).append(r)

    # -- basic access ---------------------------------------------------------

    @property
    def log(self) -> SystemLog:
        """The analyzed system log."""
        return self._log

    def record(self, uid: str) -> LogRecord:
        """Normal log record for ``uid``."""
        record = self._by_uid.get(uid)
        if record is None:
            raise RecoveryError(f"uid {uid!r} not in analyzed log")
        return record

    def trace(self, workflow_instance: str) -> Tuple[LogRecord, ...]:
        """Normal records of one workflow instance, in commit order
        (:meth:`SystemLog.trace <repro.workflow.log.SystemLog.trace>`
        from the index)."""
        return tuple(self._traces.get(workflow_instance, ()))

    def control_model(self, workflow_instance: str) -> ControlDependencies:
        """Control-dependency model for the spec run by
        ``workflow_instance`` (one model per graph shape, shared by all
        analyzers and specs of that shape)."""
        try:
            spec = self._specs[workflow_instance]
        except KeyError:
            raise RecoveryError(
                f"no workflow spec registered for instance "
                f"{workflow_instance!r}"
            ) from None
        return _control_model_of(spec)

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
        self.record(uid)  # an unknown uid raises
        return tuple(
            DependencyEdge(uid, dst, DependencyKind.FLOW,
                           self.flow_objects(uid, dst))
            for dst in self._readers.get(uid, ())
        )

    def flow_objects(self, src_uid: str, dst_uid: str) -> FrozenSet[str]:
        """Objects of the edge ``src_uid →f dst_uid``: those ``dst_uid``
        read at the version ``src_uid`` wrote (empty without the edge)."""
        src, dst = self.record(src_uid), self.record(dst_uid)
        if dst.seq <= src.seq:
            return frozenset()
        reads = dst.reads
        return frozenset(name for name, ver in src.writes.items()
                         if reads.get(name) == ver)

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

    def anti_successors(self, uid: str) -> Tuple[str, ...]:
        """Destinations of :meth:`anti_edges_from`, in commit order,
        memoised."""
        return self._successors(uid, self._anti, False)

    def output_successors(self, uid: str) -> Tuple[str, ...]:
        """Destinations of :meth:`output_edges_from`, in commit order,
        memoised."""
        return self._successors(uid, self._output, True)

    def _successors(self, uid: str, memo: Dict[str, Tuple[str, ...]],
                    output: bool) -> Tuple[str, ...]:
        """The first later writer of each object ``uid`` read (or, with
        ``output``, wrote), distinct and in commit order."""
        found = memo.get(uid)
        if found is None:
            src = self.record(uid)
            hits = self._next_writers(src, src.writes if output
                                      else src.reads)
            found = memo[uid] = tuple(hits[seq][0] for seq in sorted(hits))
        return found

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

    def readers_of(self, names: Iterable[str]) -> List[LogRecord]:
        """Normal records that read any object in ``names``, in commit
        order, from an object → readers index built on first use."""
        index = self._object_readers
        if index is None:
            index = self._object_readers = {}
            for record in self._records:
                for name in record.reads:
                    index.setdefault(name, []).append(record)
        rows = [index[name] for name in names if name in index]
        if len(rows) <= 1:
            return list(rows[0]) if rows else []
        by_seq = {r.seq: r for row in rows for r in row}
        return [by_seq[seq] for seq in sorted(by_seq)]

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

    def flow_closure(
        self,
        seeds: Iterable[str],
        parents: Optional[Dict[str, str]] = None,
    ) -> FrozenSet[str]:
        """All instances reachable from ``seeds`` via ``→f`` edges
        (``t_i →f* t_j``), *excluding* the seeds themselves unless they
        are re-reached.

        When ``parents`` is given, it receives each reached instance's
        first-reaching source (the last hop of the path that found it).
        """
        frontier: List[str] = list(seeds)
        for uid in frontier:
            self.record(uid)
        readers = self._readers
        seen: Set[str] = set()
        while frontier:
            uid = frontier.pop()
            for dst in readers.get(uid, ()):
                if dst not in seen:
                    seen.add(dst)
                    frontier.append(dst)
                    if parents is not None:
                        parents[dst] = uid
        return frozenset(seen)

    # -- control dependences over instances ------------------------------------

    def control_dependents(self, uid: str) -> Tuple[str, ...]:
        """Instances ``t_j`` in the same workflow trace with
        ``uid →c* t_j`` and ``uid ≺ t_j``, memoised."""
        memo = self._dependents
        found = memo.get(uid)
        if found is None:
            src = self.record(uid)
            wf = src.instance.workflow_instance
            model = self.control_model(wf)
            task = src.instance.task_id
            found = memo[uid] = tuple(
                r.uid for r in self._traces[wf]
                if r.seq > src.seq
                and model.depends(task, r.instance.task_id)
            )
        return found

    def control_sources(self, uid: str) -> Tuple[str, ...]:
        """Instances ``t_i`` in the same trace with ``t_i →c* uid``,
        memoised."""
        memo = self._sources
        found = memo.get(uid)
        if found is None:
            dst = self.record(uid)
            wf = dst.instance.workflow_instance
            model = self.control_model(wf)
            task = dst.instance.task_id
            found = memo[uid] = tuple(
                r.uid for r in self._traces[wf]
                if r.seq < dst.seq
                and model.depends(r.instance.task_id, task)
            )
        return found

    def unexecuted_controlled_writers(
        self, uid: str,
    ) -> Tuple[Tuple[str, FrozenSet[str]], ...]:
        """Theorem 1 condition 4's alternative-path tasks of ``uid``:
        each task ``t_k`` of its spec, sorted, that its trace has not
        executed, with ``uid →c* t_k`` and a non-empty write set, paired
        with that write set; memoised."""
        memo = self._alternatives
        found = memo.get(uid)
        if found is None:
            record = self.record(uid)
            wf = record.instance.workflow_instance
            model = self.control_model(wf)
            spec = self._specs[wf]
            executed = {r.instance.task_id for r in self._traces[wf]}
            task = record.instance.task_id
            found = memo[uid] = tuple(
                (t_k, spec.task(t_k).writes) for t_k in sorted(spec.tasks)
                if t_k not in executed and model.depends(task, t_k)
                and spec.task(t_k).writes
            )
        return found
