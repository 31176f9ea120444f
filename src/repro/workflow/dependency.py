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

    The analyzer indexes the log's normal records — version → writer,
    writer → readers, object → writers in commit order, workflow
    instance → trace — and every query first indexes the records
    committed since the previous one.  One analyzer therefore serves a
    growing log, and each query costs in proportion to the edges it
    returns, not to the length of the log.

    The per-record facts that recovery planning asks for again and
    again are computed once per analyzer and then only extended with
    the records committed since.  A log only grows at its end, and
    each fact is monotone in it, so an extended memo equals a rebuild:

    1. *Reads-from.*  A record's readers are records committed after
       it, so the writer → readers adjacency behind
       :meth:`flow_dependents` and :meth:`flow_closure` only gains
       entries at the end of each list.
    2. *Anti and output edges* (T3.4/T3.5).  Once an object has a
       writer after ``t``, the first such writer never changes; an
       object with no later writer yet is re-checked only when its
       writer count grows (:meth:`anti_successors`,
       :meth:`output_successors`).
    3. *Control.*  :meth:`control_sources` of ``t`` lies in its trace
       before it and is fixed at commit.  :meth:`control_dependents`
       and Theorem 1 condition 4's unexecuted controlled writers
       (:meth:`unexecuted_controlled_writers`) change only when ``t``'s
       workflow trace grows, so they are keyed by its length.
    4. *Condition-4 readers.*  The readers of an object only gain later
       records, so the object → readers index behind :meth:`readers_of`
       is extended, and a merge of its lists is in commit order.

    The memos are allocated on first use: an analyzer that answers one
    query pays for no others.

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
        #: Log positions (records of every kind) indexed so far.
        self._indexed = 0
        self._records: List[LogRecord] = []
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
        # Per-record memos (see the class docstring), built on first use.
        self._anti: Optional[Dict[str, _Successors]] = None
        self._output: Optional[Dict[str, _Successors]] = None
        self._sources: Optional[Dict[str, Tuple[str, ...]]] = None
        self._dependents: Optional[
            Dict[str, Tuple[int, Tuple[str, ...]]]] = None
        self._alternatives: Optional[
            Dict[str, Tuple[int, Tuple[Tuple[str, FrozenSet[str]],
                                       ...]]]] = None
        self._object_readers: Optional[Dict[str, List[LogRecord]]] = None
        self._object_readers_indexed = 0
        self._extend()

    def _extend(self) -> None:
        """Index the normal records committed since the last call."""
        if len(self._log) == self._indexed:
            return
        new = self._log.since(self._indexed)
        self._indexed += len(new)
        writer_of_version = self._writer_of_version
        rewritten = self._rewritten
        readers = self._readers
        for r in new:
            if r.kind != RecordKind.NORMAL:
                continue
            uid = r.uid
            self._records.append(r)
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
        """Normal log record for ``uid`` (a committed record never
        changes, so an indexed one is returned without re-indexing)."""
        record = self._by_uid.get(uid)
        if record is None:
            self._extend()
            record = self._by_uid.get(uid)
            if record is None:
                raise RecoveryError(f"uid {uid!r} not in analyzed log")
        return record

    def trace(self, workflow_instance: str) -> Tuple[LogRecord, ...]:
        """Normal records of one workflow instance, in commit order
        (:meth:`SystemLog.trace <repro.workflow.log.SystemLog.trace>`
        from the index)."""
        self._extend()
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
        self._extend()
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
        self._extend()
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
        self._extend()
        return self._edges(uid, DependencyKind.ANTI,
                           self._next_writers(src, src.reads))

    def output_edges_from(self, uid: str) -> Tuple[DependencyEdge, ...]:
        """Edges ``uid →o t_j``: the *next* writer of each object ``uid``
        wrote."""
        src = self.record(uid)
        self._extend()
        return self._edges(uid, DependencyKind.OUTPUT,
                           self._next_writers(src, src.writes))

    def anti_successors(self, uid: str) -> Tuple[str, ...]:
        """Destinations of :meth:`anti_edges_from`, in commit order,
        memoised (fact 2 of the class docstring)."""
        memo = self._anti
        if memo is None:
            memo = self._anti = {}
        return self._successors(uid, memo, False)

    def output_successors(self, uid: str) -> Tuple[str, ...]:
        """Destinations of :meth:`output_edges_from`, in commit order,
        memoised (fact 2 of the class docstring)."""
        memo = self._output
        if memo is None:
            memo = self._output = {}
        return self._successors(uid, memo, True)

    def _successors(self, uid: str, memo: Dict[str, "_Successors"],
                    output: bool) -> Tuple[str, ...]:
        """The first later writer of each object ``uid`` read (or, with
        ``output``, wrote), distinct and in commit order."""
        entry = memo.get(uid)
        if entry is not None and not entry.pending:
            return entry.dsts  # complete: later records add nothing
        self._extend()
        if entry is None:
            src = self.record(uid)
            entry = memo[uid] = _Successors(
                0, (), [(name, bisect_right(self._writer_seqs[name],
                                            src.seq)
                         if name in self._writer_seqs else 0)
                        for name in (src.writes if output else src.reads)])
        if entry.pending and entry.checked != len(self._records):
            entry.checked = len(self._records)
            found: Dict[int, str] = {}
            still: List[Tuple[str, int]] = []
            for name, i in entry.pending:
                writers = self._writers.get(name)
                if writers is not None and i < len(writers):
                    found[self._writer_seqs[name][i]] = writers[i]
                else:
                    still.append((name, i))
            if found:
                # Writers found now were committed after every one found
                # before, so appending keeps commit order.
                entry.dsts += tuple(found[seq] for seq in sorted(found))
                entry.pending = still
        return entry.dsts

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
        order, from an object → readers index built on first use and
        extended like the others (fact 4 of the class docstring)."""
        self._extend()
        index = self._object_readers
        if index is None:
            index = self._object_readers = {}
        records = self._records
        for i in range(self._object_readers_indexed, len(records)):
            record = records[i]
            for name in record.reads:
                index.setdefault(name, []).append(record)
        self._object_readers_indexed = len(records)
        rows = [index[name] for name in names if name in index]
        if len(rows) <= 1:
            return list(rows[0]) if rows else []
        by_seq = {r.seq: r for row in rows for r in row}
        return [by_seq[seq] for seq in sorted(by_seq)]

    # -- literal Definition 1 forms ------------------------------------------

    def _between(self, a: LogRecord, b: LogRecord) -> Iterable[LogRecord]:
        self._extend()
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
        self._extend()
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
        ``uid →c* t_j`` and ``uid ≺ t_j`` (fact 3 of the class
        docstring)."""
        src = self.record(uid)
        self._extend()
        memo = self._dependents
        if memo is None:
            memo = self._dependents = {}
        wf = src.instance.workflow_instance
        trace = self._traces[wf]
        hit = memo.get(uid)
        if hit is None:
            hit = (0, ())
        elif hit[0] == len(trace):
            return hit[1]
        checked, found = hit
        model = self.control_model(wf)
        task = src.instance.task_id
        found += tuple(
            r.uid for r in trace[checked:]
            if r.seq > src.seq
            and model.depends(task, r.instance.task_id)
        )
        memo[uid] = (len(trace), found)
        return found

    def control_sources(self, uid: str) -> Tuple[str, ...]:
        """Instances ``t_i`` in the same trace with ``t_i →c* uid``
        (fact 3 of the class docstring)."""
        memo = self._sources
        if memo is None:
            memo = self._sources = {}
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
        with that write set (fact 3 of the class docstring)."""
        record = self.record(uid)
        self._extend()
        memo = self._alternatives
        if memo is None:
            memo = self._alternatives = {}
        wf = record.instance.workflow_instance
        trace = self._traces[wf]
        hit = memo.get(uid)
        if hit is not None and hit[0] == len(trace):
            return hit[1]
        model = self.control_model(wf)
        spec = self._specs[wf]
        executed = {r.instance.task_id for r in trace}
        task = record.instance.task_id
        found = tuple(
            (t_k, spec.task(t_k).writes) for t_k in sorted(spec.tasks)
            if t_k not in executed and model.depends(task, t_k)
            and spec.task(t_k).writes
        )
        memo[uid] = (len(trace), found)
        return found


class _Successors:
    """Memo entry of :meth:`DependencyAnalyzer.anti_successors` /
    :meth:`~DependencyAnalyzer.output_successors`: the first later
    writers found (``dsts``, in commit order), the objects with none
    yet and the index their first later writer will take in the
    object's writer list (``pending``), and the normal-record count at
    the last check (``checked``)."""

    __slots__ = ("checked", "dsts", "pending")

    def __init__(self, checked: int, dsts: Tuple[str, ...],
                 pending: List[Tuple[str, int]]) -> None:
        self.checked = checked
        self.dsts = dsts
        self.pending = pending
