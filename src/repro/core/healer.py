"""The self-healing executor.

The healer turns the static analyses of Theorems 1–2 into an operational
repair of the data store and log, resolving the *candidate* undo/redo sets
by actually re-executing tasks and re-deciding branches — the procedure
the paper sketches with ``succ(redo(t_i))``.

Algorithm
---------
Given the malicious set ``B`` (from IDS alerts) and any attacker-forged
workflow runs:

**Phase A — undo analysis.**  Build the heal's one dependency index of
the log (:func:`~repro.core.analyzer.epoch_index`) and decide the
batch's Theorem 1 closure of ``B`` (conditions 1 and 3) on it through
:func:`~repro.core.analyzer.decide_batch` (a scan decides nothing: a
unit's sets are not definite for the batch).  Every version written by
a closure instance is *dirty*; one ``undo`` record per closure instance
is committed (newest first, honoring rule T3.5's
reverse-output-dependence order), realizing rule T3.3 (``undo(t) ≺
redo(t)``).  On an active event bus the heal first decides Theorem 2
too, publishes its Theorem 1/2 decisions, then builds the batch's one
Theorem 3 order
(:func:`~repro.core.partial_orders.recovery_partial_order` over the
closure and its Theorem 2 definite redos) and publishes its edges, so
the decisions and the order a flight log holds are those of the heal
that runs; the phases below realize them.  An unobserved heal decides
Theorem 1 only and builds no order.

**Phase B — settle pass.**  Walk the original log in commit order (rule
T3.1: redos follow log precedence).  Each workflow instance owns a
*walker* tracking the node its healed execution expects next, and the
healer maintains a **settled view** of every data object: its value as of
the already-settled prefix of the healed history.  All recovery reads go
through this view, which is what makes rule T3.4 hold semantically — a
recovery execution can never observe a write that the healed history
orders after it, nor a write that is doomed to be undone.

- a record matching its walker whose reads are clean and whose read
  values equal the settled view is **kept** (its effects stand);
- a record matching its walker but with dirty or stale reads is
  **redone**: the genuine task body re-executes against the view, and its
  branch decision is re-taken — possibly diverging onto a new execution
  path (resolving Theorem 1 condition 2 / Theorem 2 condition 2);
- a record that no longer matches its walker is **abandoned**: undone and
  not redone (Theorem 2 — redoing it would violate the specification);
- when a walker diverges onto path segments never executed before, those
  tasks run inline as **new executions** (Theorem 1 condition 4: their
  writes invalidate stale readers, which are then redone at their own
  log positions).

**Phase C — reconcile.**  The physical store is brought to the settled
view (restoring "the last version before the attack" for objects whose
surviving value predates the damage), so that after ``heal()`` returns,
``store.read(x)`` equals the healed history's final value for every
object — Definition 2's "no incorrect data exists".  Only objects
written since the baseline can differ from the view, so Phase C visits
the names in the store's write journal, not the whole store.

Scope note: ``heal()`` treats the log's *normal* records as the
authoritative history.  Heal once per log epoch; to recover from attacks
that arrive after a heal, feed all alerts of the burst to a single
``heal()`` call (this is exactly how the Section IV architecture batches
alerts: SCAN drains the alert queue, then recovery executes).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
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

from repro.core.actions import Action
from repro.core.analyzer import decide_batch, epoch_index
from repro.core.axioms import HistoryStep
from repro.core.partial_orders import recovery_partial_order
from repro.core.undo_redo import RedoAnalysis, UndoAnalysis
from repro.errors import ExecutionError, RecoveryError
from repro.obs.events import (
    EventBus,
    EventTrace,
    OrderConstraint,
    TaskRedone,
    TaskUndone,
    UndoDecision,
)
from repro.obs.perf import bump, phase
from repro.workflow.data import TOMBSTONE, DataStore
from repro.workflow.dependency import DependencyAnalyzer
from repro.workflow.log import LogRecord, RecordKind, SystemLog
from repro.workflow.precedence import PartialOrder
from repro.workflow.spec import WorkflowSpec
from repro.workflow.task import TaskInstance

__all__ = ["Healer", "HealReport"]

#: Safety bound on new-path executions per workflow during one heal.
_MAX_INLINE_STEPS = 10_000


@dataclass
class HealReport:
    """Everything a heal did, for evaluation and auditing.

    Attributes
    ----------
    malicious:
        The input set ``B`` restricted to logged instances (plus all
        instances of forged runs).
    undone:
        Every instance whose effects were removed, in undo order (a
        redone instance is undone then redone).
    redone:
        Instances re-executed at their original path position.
    kept:
        Instances whose original effects were validated and preserved.
    abandoned:
        Instances undone and *not* redone (fell off the healed path or
        belonged to a forged run) — Theorem 2's negative case.
    new_executions:
        Instances executed for the first time during healing (alternative
        path segments) — Theorem 1 condition 4's ``t_k``.
    final_history:
        The healed history in settle order; feed to
        :func:`repro.core.axioms.audit_strict_correctness`.
    actions:
        The linear sequence of undo/redo actions performed, in order.
    dirty_versions:
        Every ``(object, version)`` judged incorrect during the heal; no
        redo record may have read one of these (rule T3.4's semantic
        audit).
    undo_analysis, redo_analysis:
        The heal's Theorem 1 and Theorem 2 decisions over ``malicious``
        (the batch closure is ``undo_analysis.definite``);
        ``redo_analysis`` is ``None`` when nothing observed the heal.
    order:
        The Theorem 3 order the heal built and published before its
        first undo; ``None`` when nothing observed the heal.
    """

    malicious: FrozenSet[str] = frozenset()
    undone: Tuple[str, ...] = ()
    redone: Tuple[str, ...] = ()
    kept: Tuple[str, ...] = ()
    abandoned: Tuple[str, ...] = ()
    new_executions: Tuple[str, ...] = ()
    final_history: Tuple[HistoryStep, ...] = ()
    actions: Tuple[Action, ...] = ()
    dirty_versions: FrozenSet[Tuple[str, int]] = frozenset()
    undo_analysis: Optional[UndoAnalysis] = None
    redo_analysis: Optional[RedoAnalysis] = None
    order: Optional[PartialOrder[Action]] = None

    @property
    def touched(self) -> int:
        """Number of recovery operations performed (undos + redos + new)."""
        return len(self.undone) + len(self.redone) + len(self.new_executions)

    def summary(self) -> str:
        """One-line human-readable account of the heal."""
        return (
            f"heal: {len(self.malicious)} malicious, "
            f"{len(self.undone)} undone, {len(self.redone)} redone, "
            f"{len(self.abandoned)} abandoned, "
            f"{len(self.new_executions)} new, {len(self.kept)} kept"
        )


class _Walker:
    """Healed-execution cursor for one workflow instance."""

    __slots__ = ("spec", "expected", "visits", "inline_steps")

    def __init__(self, spec: WorkflowSpec) -> None:
        self.spec = spec
        self.expected: Optional[str] = spec.start
        self.visits: Dict[str, int] = {}
        self.inline_steps = 0

    @property
    def finished(self) -> bool:
        return self.expected is None

    def matches(self, record: LogRecord) -> bool:
        """Is ``record`` the next step of the healed execution?"""
        if self.expected is None:
            return False
        instance = record.instance
        return (
            instance.task_id == self.expected
            and instance.number == self.visits.get(instance.task_id, 0) + 1
        )

    def consume(self, task_id: str) -> int:
        """Advance the visit counter for ``task_id``; returns the visit."""
        n = self.visits.get(task_id, 0) + 1
        self.visits[task_id] = n
        return n


class _SettledView:
    """Value of each data object as of the settled healed-history prefix.

    Recovery reads must observe exactly the writes the healed history
    orders before them — never a doomed original write, never a write the
    history orders later.  The view maps each object to the
    ``(version number, value)`` it holds in the settled prefix, starting
    from the epoch *baseline*: the version each object had before the
    epoch's first normal record (by default, the object's initial
    pre-log version).  Baseline entries are read from the store on first
    use, so building the view costs nothing per object.
    """

    def __init__(
        self,
        store: DataStore,
        baseline: Optional[Mapping[str, int]] = None,
    ) -> None:
        self._store = store
        self._baseline = baseline
        self._current: Dict[str, Tuple[int, Any]] = {}

    def _base(self, name: str) -> Optional[Tuple[int, Any]]:
        """The baseline ``(version, value)`` of ``name``, if it has one."""
        store = self._store
        if self._baseline is not None:
            ver = self._baseline.get(name)
            if ver is None:
                return None
            return ver, store.version(name, ver).value
        if name not in store:
            return None
        first = store.version(name, 0)
        if first.writer is not None:
            return None
        return first.number, first.value

    def get(self, name: str) -> Optional[Tuple[int, Any]]:
        """Settled ``(version, value)`` of ``name``, or None."""
        settled = self._current.get(name)
        if settled is None:
            settled = self._base(name)
            if settled is not None:
                self._current[name] = settled
        return settled

    def read(self, name: str) -> Tuple[int, Any]:
        """Settled ``(version, value)`` of ``name``."""
        settled = self.get(name)
        if settled is None:
            raise RecoveryError(
                f"object {name!r} has no value in the healed history "
                "(it was created only by undone tasks)"
            )
        return settled

    def has(self, name: str) -> bool:
        """Does ``name`` have a settled value?"""
        return self.get(name) is not None

    def set(self, name: str, version: int, value: Any) -> None:
        """Record that the settled prefix now leaves ``name`` at
        ``(version, value)``."""
        self._current[name] = (version, value)


class Healer:
    """Repairs a workflow system in place.

    Parameters
    ----------
    store:
        The (attacked) data store; mutated by healing.
    log:
        The system log; undo/redo records are appended, normal records
        are never rewritten.
    specs_by_instance:
        Spec executed by each workflow instance in the log (from
        :attr:`repro.workflow.engine.Engine.specs_by_instance`).
    baseline:
        Optional mapping ``object name → version number``: the trusted
        pre-epoch state of the store.  Defaults to each object's initial
        (pre-log, writer-less) version.  Used by
        :class:`~repro.core.epochs.EpochManager` so that a heal of a
        later epoch measures damage against the previous epoch's healed
        values instead of the original initial data.  Either way the
        store's write journal must name every object written since
        that state (a baseline is taken where the journal is drained):
        Phase C visits only those objects.
    bus:
        Optional :class:`repro.obs.events.EventBus`; when attached, each
        undo/redo publishes a :class:`~repro.obs.events.TaskUndone` /
        :class:`~repro.obs.events.TaskRedone` event.  No-op when
        ``None``.
    clock:
        Timestamp source for published events (default
        ``time.monotonic``).

    Under a recording profiler, :meth:`heal` records its Phases A–C as
    ``heal.undo`` / ``heal.settle`` / ``heal.reconcile``, and the
    build of an observed heal's order as ``heal.order`` inside
    ``heal.undo``.  On an active bus the heal publishes its Theorem 1/2
    decisions, then its order's edges, before its first undo.
    """

    def __init__(
        self,
        store: DataStore,
        log: SystemLog,
        specs_by_instance: Mapping[str, WorkflowSpec],
        baseline: Optional[Mapping[str, int]] = None,
        bus: Optional[EventBus] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._store = store
        self._log = log
        self._specs = specs_by_instance
        self._baseline = baseline
        self._bus = bus if bus is not None and bus.active else None
        self._clock = clock if clock is not None else _time.monotonic  # lint: allow[DET001] injectable clock; wall time is the live default

    def _note_undo(self, uid: str, reason: str = "",
                   disposition: bool = False) -> None:
        if self._bus is not None:
            self._bus.publish(
                TaskUndone(self._clock(), uid=uid, reason=reason,
                           disposition=disposition)
            )

    def _note_redo(self, uid: str, mode: str = "redo") -> None:
        if self._bus is not None:
            self._bus.publish(
                TaskRedone(self._clock(), uid=uid, mode=mode)
            )

    # -- public API ---------------------------------------------------------

    def heal(
        self,
        malicious: Iterable[str],
        forged_runs: Iterable[str] = (),
    ) -> HealReport:
        """Recover from the malicious instances in ``malicious``.

        Parameters
        ----------
        malicious:
            Uids of instances reported malicious (IDS alerts, set ``B``).
            Uids absent from the log are ignored (alerts about
            never-committed tasks).
        forged_runs:
            Workflow-instance ids the attacker forged wholesale; every
            task of such a run is undone and none redone (Axiom 1
            condition 1: "the task should not be executed").
        """
        log = self._log
        forged = set(forged_runs)

        # ---- Phase A: undo records for the closure -------------------------
        with phase("heal.undo"):
            analyzer = epoch_index(log, self._specs)

            bad: Set[str] = {u for u in malicious if u in log}
            for record in log.normal_records():
                if record.instance.workflow_instance in forged:
                    bad.add(record.uid)
            bus = self._bus
            now = self._clock() if bus is not None else None
            undo_analysis, redo_analysis, decisions = decide_batch(
                analyzer, bad, now)
            closure: Set[str] = set(undo_analysis.definite)

            dirty: Set[Tuple[str, int]] = set()
            for uid in closure:
                for name, ver in analyzer.record(uid).writes.items():
                    dirty.add((name, ver))

            order = None
            if bus is not None:
                for decision in decisions:
                    bus.publish(decision)
                order = self._publish_order(analyzer, closure,
                                            redo_analysis, forged, now)

            undone: List[str] = []
            actions: List[Action] = []

            for uid in sorted(
                closure, key=lambda u: analyzer.record(u).seq,
                reverse=True,
            ):
                self._undo(analyzer.record(uid), "closure", undone,
                           actions)

        # ---- Phase B: settle pass -------------------------------------------
        with phase("heal.settle"):
            view = _SettledView(self._store, self._baseline)
            kept: List[str] = []
            redone: List[str] = []
            abandoned: List[str] = []
            new_execs: List[str] = []
            history: List[HistoryStep] = []

            # Each instance's trace, grouped in one pass over the log
            # (keys in order of each instance's first record).
            normal = log.normal_records()
            remaining: Dict[str, List[LogRecord]] = {}
            for record in normal:
                remaining.setdefault(
                    record.instance.workflow_instance, []).append(record)
            walkers: Dict[str, _Walker] = {}
            for wf in remaining:
                if wf not in forged:
                    spec = self._specs.get(wf)
                    if spec is None:
                        raise RecoveryError(
                            f"no spec registered for workflow instance "
                            f"{wf!r}"
                        )
                    walkers[wf] = _Walker(spec)

            for record in normal:
                wf = record.instance.workflow_instance
                remaining[wf].pop(0)
                if wf in forged:
                    self._abandon(record, closure, dirty, undone,
                                  abandoned, actions)
                    continue
                walker = walkers[wf]
                if not walker.matches(record):
                    self._abandon(record, closure, dirty, undone,
                                  abandoned, actions)
                    continue
                if (record.uid in closure
                        or self._stale_reads(record, dirty, view)):
                    self._redo(record, walker, view, dirty, undone,
                               redone, actions, history, undo_analysis)
                    self._run_inline_until_rejoin(
                        wf, walker, remaining[wf], view, new_execs,
                        actions, history,
                    )
                else:
                    self._keep(record, walker, view, kept, history)

            # Drive any diverged walker that outlived its original trace.
            for wf in remaining:
                if wf in forged:
                    continue
                walker = walkers[wf]
                while not walker.finished:
                    self._execute_inline(wf, walker, view, new_execs,
                                         actions, history)

        # ---- Phase C: reconcile the physical store ---------------------------
        with phase("heal.reconcile"):
            self._reconcile(view)

        return HealReport(
            malicious=frozenset(bad),
            undone=tuple(undone),
            redone=tuple(redone),
            kept=tuple(kept),
            abandoned=tuple(abandoned),
            new_executions=tuple(new_execs),
            final_history=tuple(history),
            actions=tuple(actions),
            dirty_versions=frozenset(dirty),
            undo_analysis=undo_analysis,
            redo_analysis=redo_analysis,
            order=order,
        )

    # -- internals -------------------------------------------------------------

    def _publish_order(
        self,
        analyzer: DependencyAnalyzer,
        closure: Set[str],
        redo_analysis: RedoAnalysis,
        forged: Set[str],
        now: float,
    ) -> PartialOrder[Action]:
        """Build the batch's Theorem 3 order and publish its edges,
        stamped ``now``.

        The order holds one undo per closure instance and one redo per
        Theorem 2 definite redo of the closure (``redo_analysis``); a
        forged run's records are never redone, so they have no redo.
        Phase A commits the undos newest first (T3.5) and Phase B
        redoes in log order (T3.1) after every undo (T3.3, T3.4).  A
        definite redo can still be abandoned when a stale-read redo
        re-decides a branch that controls it, so an edge's ``before``
        may go unrealized.
        """
        with phase("heal.order"):
            redos = [
                uid for uid in redo_analysis.definite
                if analyzer.record(uid).instance.workflow_instance
                not in forged
            ]
            trace: EventTrace[OrderConstraint] = EventTrace(now)
            order = recovery_partial_order(analyzer, closure, redos,
                                           trace=trace)
            order.check_acyclic()
        bump("actions_planned", len(order))
        for edge in trace:
            self._bus.publish(edge)
        return order

    def _stale_reads(
        self,
        record: LogRecord,
        dirty: Set[Tuple[str, int]],
        view: _SettledView,
    ) -> List[str]:
        """Axiom 1 at settle time: the objects ``record`` read dirty or
        stale, in read order; any of them forces a redo."""
        stale: List[str] = []
        for name, ver in record.reads.items():
            if (name, ver) in dirty or not view.has(name):
                # dirty, or healed history has not produced it (yet)
                stale.append(name)
                continue
            __, settled_value = view.read(name)
            if settled_value != self._store.version(name, ver).value:
                stale.append(name)  # upstream redo produced a new value
        return stale

    def _keep(
        self,
        record: LogRecord,
        walker: _Walker,
        view: _SettledView,
        kept: List[str],
        history: List[HistoryStep],
    ) -> None:
        """Preserve a validated record; its writes become the settled
        values."""
        store = self._store
        for name, ver in sorted(record.writes.items()):
            view.set(name, ver, store.version(name, ver).value)
        walker.consume(record.instance.task_id)
        walker.expected = record.chosen
        kept.append(record.uid)
        history.append(
            HistoryStep(
                record.instance.workflow_instance,
                record.instance.task_id,
                record.instance.number,
            )
        )

    def _redo(
        self,
        record: LogRecord,
        walker: _Walker,
        view: _SettledView,
        dirty: Set[Tuple[str, int]],
        undone: List[str],
        redone: List[str],
        actions: List[Action],
        history: List[HistoryStep],
        undo_analysis: UndoAnalysis,
    ) -> None:
        """Re-execute a record's genuine code at its settle position."""
        uid = record.uid
        if uid not in set(undone):
            # Stale-read redo (Theorem 1 cond. 4): its old outputs are
            # incorrect even though it was not in the static closure.
            if (self._bus is not None
                    and uid not in undo_analysis.candidates):
                # Found only now: no Theorem 1 decision covers it yet.
                self._bus.publish(UndoDecision(
                    self._clock(), uid=uid, condition="T1.4",
                    objects=tuple(self._stale_reads(record, dirty, view)),
                ))
            for name, ver in record.writes.items():
                dirty.add((name, ver))
            self._undo(record, "stale-read", undone, actions)
        instance = record.instance
        chosen = self._execute(instance, view, kind=RecordKind.REDO)
        walker.consume(instance.task_id)
        walker.expected = chosen
        redone.append(uid)
        actions.append(Action.redo(uid))
        self._note_redo(uid)
        history.append(
            HistoryStep(
                instance.workflow_instance, instance.task_id, instance.number
            )
        )

    def _undo(
        self,
        record: LogRecord,
        reason: str,
        undone: List[str],
        actions: List[Action],
    ) -> None:
        """Account ``undo(record)`` in the heal's order and commit it."""
        undone.append(record.uid)
        actions.append(Action.undo(record.uid))
        self._commit_undo(record, reason)

    def _commit_undo(self, record: LogRecord, reason: str) -> None:
        """Publish and commit the UNDO record that invalidates the
        versions ``record`` wrote."""
        self._note_undo(record.uid, reason=reason)
        self._log.commit(
            record.instance,
            reads={},
            writes=dict(record.writes),  # versions invalidated
            kind=RecordKind.UNDO,
        )

    def _abandon(
        self,
        record: LogRecord,
        closure: Set[str],
        dirty: Set[Tuple[str, int]],
        undone: List[str],
        abandoned: List[str],
        actions: List[Action],
    ) -> None:
        """Undo a record that the healed execution no longer reaches."""
        uid = record.uid
        for name, ver in record.writes.items():
            dirty.add((name, ver))
        already_undone = uid in set(undone)
        if not already_undone:
            undone.append(uid)
            actions.append(Action.undo(uid))
        # Always announce the abandonment, even when Phase A already
        # rolled the record back as part of the closure: abandonment is
        # the uid's *final disposition*, and without it the event stream
        # cannot distinguish "undone, redo still owed" from "undone and
        # legitimately dropped" (the LTLf redo-follow-through property
        # discharges on this note).  When the closure undo already
        # happened, the note is disposition-only so counters do not see
        # a second undo operation.
        self._note_undo(uid, reason="abandoned",
                        disposition=already_undone)
        if uid not in closure:
            # Closure members already carry a Phase-A undo record.
            self._log.commit(
                record.instance,
                reads={},
                writes=dict(record.writes),
                kind=RecordKind.UNDO,
            )
        abandoned.append(uid)

    def _run_inline_until_rejoin(
        self,
        wf: str,
        walker: _Walker,
        remaining: Sequence[LogRecord],
        view: _SettledView,
        new_execs: List[str],
        actions: List[Action],
        history: List[HistoryStep],
    ) -> None:
        """After a divergence, execute new-path tasks until the healed
        path rejoins the original trace (or finishes)."""
        while not walker.finished:
            expected = walker.expected
            next_visit = walker.visits.get(expected, 0) + 1
            rejoins = any(
                r.instance.task_id == expected
                and r.instance.number == next_visit
                for r in remaining
            )
            if rejoins:
                return  # settle it at its own log position
            self._execute_inline(wf, walker, view, new_execs, actions,
                                 history)

    def _execute_inline(
        self,
        wf: str,
        walker: _Walker,
        view: _SettledView,
        new_execs: List[str],
        actions: List[Action],
        history: List[HistoryStep],
    ) -> None:
        """Execute the walker's expected task as a brand-new instance."""
        task_id = walker.expected
        if task_id is None:  # pragma: no cover - guarded by callers
            raise RecoveryError(f"workflow {wf!r} walker already finished")
        walker.inline_steps += 1
        if walker.inline_steps > _MAX_INLINE_STEPS:
            raise RecoveryError(
                f"workflow {wf!r} exceeded {_MAX_INLINE_STEPS} recovery "
                "executions (non-terminating healed path?)"
            )
        number = walker.consume(task_id)
        instance = TaskInstance(wf, task_id, number)
        chosen = self._execute(instance, view, kind=RecordKind.REDO)
        walker.expected = chosen
        new_execs.append(instance.uid)
        actions.append(Action.redo(instance.uid))
        self._note_redo(instance.uid, mode="new")
        history.append(HistoryStep(wf, task_id, number))

    def _execute(
        self,
        instance: TaskInstance,
        view: _SettledView,
        kind: str,
    ) -> Optional[str]:
        """Run an instance's genuine code against the settled view and
        commit it; returns the (re-)decided successor."""
        store = self._store
        wf = instance.workflow_instance
        spec = self._specs[wf]
        task = spec.task(instance.task_id)

        read_versions: Dict[str, int] = {}
        inputs: Dict[str, Any] = {}
        for name in sorted(task.reads):
            ver, value = view.read(name)
            read_versions[name] = ver
            inputs[name] = value
        try:
            outputs = dict(task.run(inputs))
        except ValueError as exc:
            raise ExecutionError(
                f"recovery execution of {instance.uid} failed: {exc}"
            ) from exc
        write_versions: Dict[str, int] = {}
        for name in sorted(outputs):
            new_ver = store.write(
                name, outputs[name], writer=f"redo:{instance.uid}"
            )
            write_versions[name] = new_ver
            view.set(name, new_ver, outputs[name])
        successors = spec.successors(instance.task_id)
        if not successors:
            chosen: Optional[str] = None
        elif len(successors) == 1:
            chosen = successors[0]
        else:
            visible = dict(inputs)
            visible.update(outputs)
            chosen = task.choose(visible)
            if chosen not in successors:
                raise ExecutionError(
                    f"recovery branch {instance.uid} chose non-successor "
                    f"{chosen!r}"
                )
        self._log.commit(
            instance,
            reads=read_versions,
            writes=write_versions,
            chosen=chosen,
            kind=kind,
        )
        return chosen

    def _reconcile(self, view: _SettledView) -> None:
        """Phase C: make the physical store equal the settled view.

        Only objects written since the baseline can differ from it: the
        store's write journal names them (the baseline is the store as
        of the journal's last drain, or its initial load)."""
        store = self._store
        names = list(store.written())
        bump("store_names_touched", len(names))
        for name in names:
            latest = store.latest(name)
            settled = view.get(name)
            if settled is not None:
                version, value = settled
                if latest.number != version and latest.value != value:
                    store.write(name, value, writer="heal:reconcile")
            elif latest.value is not TOMBSTONE:
                # Only undone writes ever produced it, and it has no
                # trusted baseline value: mark it removed.
                store.write(name, TOMBSTONE, writer="heal:reconcile")
