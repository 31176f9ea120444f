"""The recovery analyzer of the Figure 2 architecture.

"The recovery analyzer generates recovery tasks, works out related
partial orders, and puts them in the queue of recovery tasks."  This
module is that component, but for the orders: it consumes IDS alerts
and produces :class:`~repro.core.plan.RecoveryPlan` objects, one unit
of recovery tasks per alert, and the heal that runs the queued units
works out their one partial order.

The analyzer is purely analytical — it never executes anything and never
mutates the log or store.  A batch heal merges every queued unit, so the
analyzer orders no action, within a unit or across units; the count of
outstanding units only feeds :func:`RecoveryAnalyzer.analysis_cost`, the
modelled ``μ_k`` degradation the CTMC assumes, not work the analyzer
does.

A scan decides nothing until something reads its plan, and it builds
no order.  The batch heal derives the merged batch's Theorem 1 closure
again, on the epoch's dependency index, because a unit's "definite"
sets are not definite for the batch (a T2.1 redo one scan decides can
fall off the path when the batch also heals an earlier task of its
workflow).  For the same reason the "related partial orders" are the
heal's: on an observed run the heal builds and publishes the one
Theorem 3 order of the batch it runs (:mod:`repro.core.healer`).  So a
plan's Theorem 1/2 sets are decided on the first read of
:attr:`RecoveryPlan.undo_analysis
<repro.core.plan.RecoveryPlan.undo_analysis>` or ``redo_analysis``.  An
observed scan reads them at once, to publish its provenance and claimed
sets; so do the fuzz episode's plan verifier and the tests.  An
unobserved scan that nothing verifies decides nothing: its unit only
waits in the queue.
"""

from __future__ import annotations

import time as _time
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.plan import RecoveryPlan
from repro.core.undo_redo import (
    RedoAnalysis,
    UndoAnalysis,
    find_redo_tasks,
    find_undo_tasks,
)
from repro.ids.alerts import Alert
from repro.obs.events import (
    EventBus,
    EventTrace,
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
    4's direct stale reads) only gain later records.  Each plan and
    its provenance are the same as a fresh analyzer's.

    Parameters
    ----------
    log:
        The system log to analyze.  Its dependency index
        (:meth:`dependency_index`) is built on the first read of a
        plan's sets, or by the heal, and extended with later commits on
        each next read; drivers whose log rolls with every heal hold
        one analyzer per epoch.
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
        ``time.monotonic``), read once per observed scan, before the
        analysis: every event the scan publishes carries that time.

    Under a recording profiler, the decision of a plan's sets records
    the phase ``analyze.closure`` (Theorems 1/2), wherever they are
    first read.
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
        self._bus = bus
        self._clock = clock if clock is not None else _time.monotonic  # lint: allow[DET001] injectable clock; wall time is the live default

    def dependency_index(self) -> DependencyAnalyzer:
        """The dependency index of this analyzer's log, built on the
        first call and extended with later commits by each query.

        A scan that decides its sets builds it; otherwise the batch
        heal of the epoch does (:meth:`SelfHealingSystem._commit
        <repro.system.SelfHealingSystem>` hands it to the healer), so
        an epoch builds one index either way.
        """
        if self._dep is None:
            # The one index-and-memo build of this analyzer's log
            # (ROADMAP item 1(c)): later reads reuse it.  Drivers hold
            # one analyzer per log epoch, so the counter reads builds
            # per epoch, not per alert.
            bump("closure_recomputations")
            self._dep = DependencyAnalyzer(self._log, self._specs)
        return self._dep

    def analyze(
        self,
        alerts: Sequence[Union[Alert, str]],
        outstanding_units: int = 0,
    ) -> RecoveryPlan:
        """Process a batch of alerts into one recovery plan.

        Parameters
        ----------
        alerts:
            IDS alerts (or bare instance uids).  Alerts naming instances
            absent from the log are counted but contribute no actions
            (false alarms about uncommitted tasks).
        outstanding_units:
            Recovery units already queued but not yet executed.  Only
            stamped on the :class:`~repro.obs.events.ScanStep` with its
            modelled :meth:`analysis_cost`: the batch heal merges the
            queued units, so no cross-unit order is computed.
        """
        uids: List[str] = []
        for alert in alerts:
            uid = alert.uid if isinstance(alert, Alert) else alert
            uids.append(uid)
        tracing = self._bus is not None and self._bus.active
        # Provenance is built once, stamped with its publish time.
        now = self._clock() if tracing else 0.0
        undo_trace: Optional[EventTrace[UndoDecision]] = \
            EventTrace(now) if tracing else None
        redo_trace: Optional[EventTrace[RedoDecision]] = \
            EventTrace(now) if tracing else None
        sets_of = self._sets_of(tuple(uids), undo_trace, redo_trace)
        plan = RecoveryPlan(alert_uids=tuple(uids), sets_of=sets_of)
        if tracing:
            # The published provenance and the claimed sets need the
            # sets, so an observed scan decides them here.
            sets_of()
            # Provenance first (why each action exists), then the
            # ScanStep that closes the analysis.
            publish = self._bus.publish
            for trace in (undo_trace, redo_trace):
                for decision in trace:
                    publish(decision)
            publish(ScanStep(
                now,
                uid=uids[0] if uids else "",
                outstanding_units=outstanding_units,
                cost=self.analysis_cost(outstanding_units),
            ))
        return plan

    def _sets_of(
        self,
        uids: Tuple[str, ...],
        undo_trace: Optional[List[UndoDecision]],
        redo_trace: Optional[List[RedoDecision]],
    ) -> Callable[[], Tuple[UndoAnalysis, RedoAnalysis]]:
        """The Theorem 1/2 sets of one plan, decided on the first call.

        Later calls, from the plan or from a copy of it, return the
        same pair.  The sets are decided against the log as of that
        first call.  The log only grows, and what it gains after a scan
        is later than every record the scan saw: a later writer, reader
        or trace step adds members but is never a control source of an
        earlier record.  So a late first read gives a superset of every
        set a read at scan time would have given, and equals a fresh
        analyzer's sets over the log as it is then.
        """
        memo: List[Tuple[UndoAnalysis, RedoAnalysis]] = []

        def sets() -> Tuple[UndoAnalysis, RedoAnalysis]:
            if memo:
                return memo[0]
            with phase("analyze.closure"):
                analyzer = self.dependency_index()
                undo_analysis = find_undo_tasks(analyzer, uids,
                                                trace=undo_trace)
                redo_analysis = find_redo_tasks(
                    analyzer, undo_analysis.definite, trace=redo_trace
                )
            memo.append((undo_analysis, redo_analysis))
            return memo[0]

        return sets

    def analysis_cost(self, outstanding_units: int) -> int:
        """Modelled dependence checks needed to admit one more alert
        when ``outstanding_units`` recovery units are already queued.

        The paper's analyzer compares the new alert's damage against
        every outstanding recovery task (Section V-A) — a linear factor
        that makes the per-alert processing rate fall as the queue
        grows, the motivation for ``μ_k = f(μ_1, k)`` with ``μ_k``
        decreasing in ``k``; the default CTMC family ``μ_k = μ_1 / k``
        corresponds to this linear cost.  This analyzer does no such
        check (the batch heal merges the queued units), so the cost is
        the model's, stamped on each :class:`ScanStep`.
        """
        return max(1, outstanding_units) * max(1, len(self._log))
