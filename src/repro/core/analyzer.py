"""The recovery analyzer of the Figure 2 architecture.

"The recovery analyzer generates recovery tasks, works out related
partial orders, and puts them in the queue of recovery tasks."  This
module is that component: it consumes IDS alerts and produces
:class:`~repro.core.plan.RecoveryPlan` objects, one unit of recovery
tasks per alert.

The analyzer is purely analytical — it never executes anything and never
mutates the log or store.  Its cost grows with the number of recovery
tasks already outstanding (it must check dependences against all of
them), which is exactly the ``μ_k`` degradation the CTMC models; see
:func:`RecoveryAnalyzer.analysis_cost`.
"""

from __future__ import annotations

import time as _time
from dataclasses import replace
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.actions import Action
from repro.core.partial_orders import recovery_partial_order
from repro.core.plan import CrossUnitRow, RecoveryPlan
from repro.core.undo_redo import find_redo_tasks, find_undo_tasks
from repro.errors import RecoveryError
from repro.ids.alerts import Alert
from repro.obs.events import (
    EventBus,
    OrderConstraint,
    RedoDecision,
    ScanStep,
    UndoDecision,
)
from repro.obs.perf import bump, phase
from repro.workflow.dependency import DependencyAnalyzer
from repro.workflow.log import SystemLog
from repro.workflow.spec import WorkflowSpec

__all__ = ["RecoveryAnalyzer"]


class RecoveryAnalyzer:
    """Turns IDS alerts into recovery plans.

    Consecutive alerts in one epoch condemn mostly the same instances,
    so each instance's facts are computed once per epoch, in the
    :class:`~repro.workflow.dependency.DependencyAnalyzer`'s memos, and
    later scans only extend them with the records committed since.
    That equals a rebuild because a log only grows at its end and each
    fact is monotone in it: an instance's readers are later records;
    the first later writer of an object, once there, never changes;
    its control sources are fixed at commit, while its control
    dependents and its Theorem 1 condition-4 alternatives change only
    with the length of its trace; and an object's readers (condition
    4's direct stale reads) only gain later records.  Each plan, its
    provenance and its order are the same as a fresh analyzer's.

    Parameters
    ----------
    log:
        The system log to analyze.  Its dependency index is built on
        the first scan and extended with later commits on each next
        one; drivers whose log rolls with every heal hold one analyzer
        per epoch.
    specs_by_instance:
        Spec executed by each workflow instance in the log, read live
        (instances registered later are seen by later scans).
    bus:
        Optional :class:`repro.obs.events.EventBus`; when attached, each
        :meth:`analyze` call publishes a
        :class:`~repro.obs.events.ScanStep` carrying its dependence-check
        cost.  No-op when ``None``.
    clock:
        Timestamp source for published events (default
        ``time.monotonic``).

    Under a recording profiler, :meth:`analyze` records the phases
    ``analyze.closure`` (Theorems 1/2) and ``analyze.plan`` (Theorems
    3/4 and the cross-unit checks).
    """

    def __init__(
        self,
        log: SystemLog,
        specs_by_instance: Mapping[str, WorkflowSpec],
        bus: Optional[EventBus] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._log = log
        self._specs = specs_by_instance
        self._dep: Optional[DependencyAnalyzer] = None
        #: Distinct actions planned in this epoch, and the analyzer's
        #: memo fills already counted (the ``actions_planned`` and
        #: ``plan_memo_fills`` counters).
        self._planned: Set[Action] = set()
        self._fills_counted = 0
        self._bus = bus
        self._clock = clock if clock is not None else _time.monotonic  # lint: allow[DET001] injectable clock; wall time is the live default

    def _dependency_analyzer(self) -> DependencyAnalyzer:
        if self._dep is None:
            # The one index-and-memo build of this analyzer's log
            # (ROADMAP item 1(c)): later scans reuse it, and extend it
            # only with what was committed since.  Drivers hold one
            # analyzer per log epoch, so the counter reads builds per
            # epoch, not per alert.
            bump("closure_recomputations")
            self._dep = DependencyAnalyzer(self._log, self._specs)
        return self._dep

    def analyze(
        self,
        alerts: Sequence[Union[Alert, str]],
        outstanding: Sequence[RecoveryPlan] = (),
    ) -> RecoveryPlan:
        """Process a batch of alerts into one recovery plan.

        Parameters
        ----------
        alerts:
            IDS alerts (or bare instance uids).  Alerts naming instances
            absent from the log are counted but contribute no actions
            (false alarms about uncommitted tasks).
        outstanding:
            Recovery units already queued but not yet executed.  "The
            analyzer needs to check all dependence relations among
            existing recovery tasks to generate a correct recovery
            scheme after a new IDS alert arrives" (Section V-A): every
            action of the new plan is checked against every outstanding
            action, and conflicts become cross-unit ordering
            constraints.  This check is the linear-in-queue-length work
            behind the CTMC's decreasing ``μ_k``.
        """
        uids: List[str] = []
        for alert in alerts:
            uid = alert.uid if isinstance(alert, Alert) else alert
            uids.append(uid)
        tracing = self._bus is not None and self._bus.active
        undo_trace: Optional[List[UndoDecision]] = [] if tracing else None
        redo_trace: Optional[List[RedoDecision]] = [] if tracing else None
        order_trace: Optional[List[OrderConstraint]] = \
            [] if tracing else None
        with phase("analyze.closure"):
            analyzer = self._dependency_analyzer()
            undo_analysis = find_undo_tasks(analyzer, uids,
                                            trace=undo_trace)
            redo_analysis = find_redo_tasks(
                analyzer, undo_analysis.definite, trace=redo_trace
            )
        with phase("analyze.plan"):
            order = recovery_partial_order(
                analyzer,
                undo_set=undo_analysis.definite,
                redo_set=redo_analysis.definite,
                trace=order_trace,
            )
            order.check_acyclic()
            cross_actions, cross_rows = self._cross_unit_constraints(
                analyzer, order, outstanding)
        # Once per epoch: each distinct action's Theorem 3 edge walk is
        # one memo fill, so the ratio of these counters stays at 1.
        planned = len(self._planned)
        self._planned.update(order)
        bump("actions_planned", len(self._planned) - planned)
        bump("plan_memo_fills", analyzer.memo_fills - self._fills_counted)
        self._fills_counted = analyzer.memo_fills
        if tracing:
            now = self._clock()
            # Provenance first (why each action exists and how it is
            # ordered), then the ScanStep that closes the analysis.
            for decision in undo_trace + redo_trace + order_trace:
                self._bus.publish(replace(decision, time=now))
            names = [str(action) for action in cross_actions]
            for prior, hits in cross_rows:
                before = str(prior)
                row = names if hits is None else [names[i] for i in hits]
                for after in row:
                    self._bus.publish(OrderConstraint(
                        now, rule="XU", before=before, after=after,
                    ))
            outstanding_units = sum(p.units for p in outstanding)
            self._bus.publish(ScanStep(
                now,
                uid=uids[0] if uids else "",
                outstanding_units=outstanding_units,
                cost=self.analysis_cost(outstanding_units),
            ))
        return RecoveryPlan(
            alert_uids=tuple(uids),
            undo_analysis=undo_analysis,
            redo_analysis=redo_analysis,
            order=order,
            units=len(uids),
            cross_unit_actions=cross_actions,
            cross_unit_rows=cross_rows,
        )

    def _cross_unit_constraints(
        self,
        analyzer: DependencyAnalyzer,
        order,
        outstanding: Sequence[RecoveryPlan],
    ) -> Tuple[Tuple[Action, ...], Tuple[CrossUnitRow, ...]]:
        """Order the new plan's actions after every conflicting action
        of every outstanding unit (FIFO across units).

        Two actions conflict when they share an instance or one writes
        an object the other reads or writes.  The result is factored:
        the new actions sorted, and one ``(prior, hits)`` row per
        conflicting prior action, unit by unit and prior actions sorted,
        where ``hits`` is the sorted indices of the new actions it
        conflicts with or ``None`` for all of them.  Expanding the rows
        gives the pairs in the order a pair-by-pair check would list
        them (:attr:`RecoveryPlan.cross_unit_constraints`), without
        allocating one tuple per pair.
        """
        new_actions = tuple(sorted(order.elements()))
        if not outstanding or not new_actions:
            return (), ()
        n = len(new_actions)
        # Indices into new_actions: of the actions on each instance, of
        # those reading or writing each object, of those writing it.
        on_uid: Dict[str, List[int]] = {}
        touching: Dict[str, List[int]] = {}
        writing: Dict[str, List[int]] = {}
        for i, action in enumerate(new_actions):
            reads, writes = analyzer.object_names(action.uid)
            on_uid.setdefault(action.uid, []).append(i)
            for name in reads | writes:
                touching.setdefault(name, []).append(i)
            for name in writes:
                writing.setdefault(name, []).append(i)
        # Objects whose writer, or whose reader, conflicts with all of
        # new_actions.
        touched_by_all = {name for name, idx in touching.items()
                          if len(idx) == n}
        written_by_all = {name for name, idx in writing.items()
                          if len(idx) == n}
        # A prior action's hits depend only on its instance, so the
        # undo and redo of one instance share them; () means no row.
        hits_of: Dict[str, Optional[Tuple[int, ...]]] = {}
        rows: List[CrossUnitRow] = []
        for plan in outstanding:
            for prior in plan.actions:
                uid = prior.uid
                if uid in hits_of:
                    hits = hits_of[uid]
                else:
                    try:
                        reads, writes = analyzer.object_names(uid)
                    except RecoveryError:
                        hits_of[uid] = ()  # unit from an older log epoch
                        continue
                    if (not touched_by_all.isdisjoint(writes)
                            or not written_by_all.isdisjoint(reads)):
                        hits = None
                    else:
                        found = set(on_uid.get(uid, ()))
                        for name in writes:
                            found.update(touching.get(name, ()))
                        for name in reads:
                            found.update(writing.get(name, ()))
                        hits = tuple(sorted(found))
                    hits_of[uid] = hits
                if hits != ():
                    rows.append((prior, hits))
        return new_actions, tuple(rows)

    def analysis_cost(self, outstanding_units: int) -> int:
        """Dependence checks needed to admit one more alert when
        ``outstanding_units`` recovery units are already queued.

        The analyzer compares the new alert's damage against every
        outstanding recovery task — a linear factor that makes the
        per-alert processing rate fall as the queue grows.  This is the
        paper's motivation for ``μ_k = f(μ_1, k)`` with ``μ_k``
        decreasing in ``k``; the default CTMC family ``μ_k = μ_1 / k``
        corresponds to this linear cost.
        """
        return max(1, outstanding_units) * max(1, len(self._log))
