"""The recovery analyzer of the Figure 2 architecture.

"The recovery analyzer generates recovery tasks, works out related
partial orders, and puts them in the queue of recovery tasks."  This
module is that component: it consumes IDS alerts and produces
:class:`~repro.core.plan.RecoveryPlan` objects, one unit of recovery
tasks per alert.

The analyzer is purely analytical — it never executes anything and never
mutates the log or store.  A batch heal merges every queued unit, so the
analyzer orders no unit against another; the count of outstanding units
only feeds :func:`RecoveryAnalyzer.analysis_cost`, the modelled ``μ_k``
degradation the CTMC assumes, not work the analyzer does.

The heal realizes Theorem 3 by how it runs and never reads a plan's
order, so a scan decides the Theorem 1/2 sets and leaves the "related
partial orders" to be worked out on the first read of
:attr:`RecoveryPlan.order <repro.core.plan.RecoveryPlan.order>`.  An
observed scan reads it at once, to publish its edges; so do the
independent plan verifier and the tests.  An unobserved scan that
nothing verifies builds no order.
"""

from __future__ import annotations

import time as _time
from typing import (
    Callable,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Union,
)

from repro.core.actions import Action
from repro.core.partial_orders import recovery_partial_order
from repro.core.plan import RecoveryPlan
from repro.core.undo_redo import find_redo_tasks, find_undo_tasks
from repro.ids.alerts import Alert
from repro.obs.events import (
    EventBus,
    EventTrace,
    OrderConstraint,
    RedoDecision,
    ScanStep,
    UndoDecision,
)
from repro.obs.perf import bump, phase
from repro.workflow.dependency import DependencyAnalyzer
from repro.workflow.log import SystemLog
from repro.workflow.precedence import PartialOrder
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
        ``time.monotonic``), read once per observed scan, before the
        analysis: every event the scan publishes carries that time.

    Under a recording profiler, :meth:`analyze` records the phase
    ``analyze.closure`` (Theorems 1/2), and the build of a plan's
    order records ``analyze.plan`` (Theorem 3) wherever it is first
    read.  The ``actions_planned`` and ``plan_memo_fills`` counters
    count the orders built.
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
        order_trace: Optional[EventTrace[OrderConstraint]] = \
            EventTrace(now) if tracing else None
        with phase("analyze.closure"):
            analyzer = self._dependency_analyzer()
            undo_analysis = find_undo_tasks(analyzer, uids,
                                            trace=undo_trace)
            redo_analysis = find_redo_tasks(
                analyzer, undo_analysis.definite, trace=redo_trace
            )
        plan = RecoveryPlan(
            alert_uids=tuple(uids),
            undo_analysis=undo_analysis,
            redo_analysis=redo_analysis,
            units=len(uids),
            order_of=self._order_of(analyzer, undo_analysis.definite,
                                    redo_analysis.definite, order_trace),
        )
        if tracing:
            # The published edges need the order, so an observed scan
            # builds it here.
            plan.order
            # Provenance first (why each action exists and how it is
            # ordered), then the ScanStep that closes the analysis.
            publish = self._bus.publish
            for trace in (undo_trace, redo_trace, order_trace):
                for decision in trace:
                    publish(decision)
            publish(ScanStep(
                now,
                uid=uids[0] if uids else "",
                outstanding_units=outstanding_units,
                cost=self.analysis_cost(outstanding_units),
            ))
        return plan

    def _order_of(
        self,
        analyzer: DependencyAnalyzer,
        undos: FrozenSet[str],
        redos: FrozenSet[str],
        trace: Optional[List[OrderConstraint]],
    ) -> Callable[[], PartialOrder[Action]]:
        """The Theorem 3 order of one plan, built on the first call.

        Later calls, from the plan or from a copy of it, return the
        same object.  A later build sees the same order: every action
        is a record of the scanned log, and what the log gains later
        (records of later scans, the heal's UNDO and REDO records) is
        neither in these sets nor between two of their records.
        """
        memo: List[PartialOrder[Action]] = []

        def order() -> PartialOrder[Action]:
            if memo:
                return memo[0]
            with phase("analyze.plan"):
                built = recovery_partial_order(
                    analyzer, undo_set=undos, redo_set=redos, trace=trace,
                )
                built.check_acyclic()
            # Once per epoch: each distinct action's Theorem 3 edge walk
            # is one memo fill, so the ratio of these counters stays at 1.
            planned = len(self._planned)
            self._planned.update(built)
            bump("actions_planned", len(self._planned) - planned)
            bump("plan_memo_fills", analyzer.memo_fills - self._fills_counted)
            self._fills_counted = analyzer.memo_fills
            memo.append(built)
            return built

        return order

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
