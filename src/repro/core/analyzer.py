"""The recovery analyzer of the Figure 2 architecture.

"The recovery analyzer generates recovery tasks, works out related
partial orders, and puts them in the queue of recovery tasks."  Here
the scheduler merges every queued unit into one batch heal, so the
analyzer's share of that sentence is split:

- a scan (:meth:`RecoveryAnalyzer.analyze`) only turns an alert into a
  unit of recovery tasks (its alert uids) for the recovery queue, and
  decides nothing: a unit's "definite" sets are not definite for the
  merged batch (a T2.1 redo one scan would decide can fall off the path
  when the batch also heals an earlier task of its workflow);
- the batch heal builds the one dependency index of its epoch's log
  (:func:`epoch_index`) at the start of Phase A, decides the batch's
  Theorems 1–2 on it through :func:`decide_batch`, and on an observed
  run publishes those decisions and builds the batch's one Theorem 3
  order (:mod:`repro.core.healer`).

So :func:`decide_batch` is the one place the pipeline decides Theorems
1–2, and the provenance a flight log holds is that of the heal that
runs.  The analyzer never executes anything and never mutates the log
or store.  The count of outstanding units only feeds
:func:`RecoveryAnalyzer.analysis_cost`, the modelled ``μ_k``
degradation the CTMC assumes, not work the analyzer does.
"""

from __future__ import annotations

import time as _time
from typing import (
    Callable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.undo_redo import (
    RedoAnalysis,
    UndoAnalysis,
    find_redo_tasks,
    find_undo_tasks,
)
from repro.ids.alerts import Alert
from repro.obs.events import EventBus, EventTrace, ObsEvent, ScanStep
from repro.obs.perf import bump
from repro.workflow.dependency import DependencyAnalyzer
from repro.workflow.log import SystemLog
from repro.workflow.spec import WorkflowSpec

__all__ = ["RecoveryAnalyzer", "decide_batch", "epoch_index"]


def epoch_index(
    log: SystemLog, specs: Mapping[str, WorkflowSpec],
) -> DependencyAnalyzer:
    """The dependency index a batch heal decides on: a snapshot of
    ``log``'s normal records, built once per heal and counted in
    ``closure_recomputations``."""
    bump("closure_recomputations")
    return DependencyAnalyzer(log, specs)


def decide_batch(
    index: DependencyAnalyzer,
    bad: Iterable[str],
    time: Optional[float] = None,
) -> Tuple[UndoAnalysis, Optional[RedoAnalysis], List[ObsEvent]]:
    """The Theorem 1/2 decisions of one batch heal of ``bad``.

    With ``time`` ``None`` (nothing observes the heal) only Theorem 1
    is decided, untraced: Phase A needs nothing but its closure, and
    the redo set is ``None``.  Otherwise both theorems are decided with
    their provenance, the :class:`~repro.obs.events.UndoDecision` then
    :class:`~repro.obs.events.RedoDecision` events stamped ``time``,
    returned for the heal to publish.
    """
    if time is None:
        return find_undo_tasks(index, bad), None, []
    undo_trace: EventTrace[ObsEvent] = EventTrace(time)
    redo_trace: EventTrace[ObsEvent] = EventTrace(time)
    undo_analysis = find_undo_tasks(index, bad, trace=undo_trace)
    redo_analysis = find_redo_tasks(index, undo_analysis.definite,
                                    trace=redo_trace)
    return undo_analysis, redo_analysis, undo_trace + redo_trace


class RecoveryAnalyzer:
    """Turns IDS alerts into units of recovery tasks.

    Parameters
    ----------
    log:
        The system log the alerts name; its length sizes the modelled
        :meth:`analysis_cost`.
    bus:
        Optional :class:`repro.obs.events.EventBus`; when attached, each
        :meth:`analyze` call publishes a
        :class:`~repro.obs.events.ScanStep` carrying its modelled
        dependence-check cost.  No-op when ``None``.
    clock:
        Timestamp source for published events (default
        ``time.monotonic``), read once per observed scan.
    """

    def __init__(
        self,
        log: SystemLog,
        bus: Optional[EventBus] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._log = log
        self._bus = bus
        self._clock = clock if clock is not None else _time.monotonic  # lint: allow[DET001] injectable clock; wall time is the live default

    def analyze(
        self,
        alerts: Sequence[Union[Alert, str]],
        outstanding_units: int = 0,
    ) -> Tuple[str, ...]:
        """Turn a batch of alerts into one unit of recovery tasks: the
        alerts' instance uids, for the recovery queue.

        Parameters
        ----------
        alerts:
            IDS alerts (or bare instance uids).  Alerts naming instances
            absent from the log are kept; the heal ignores them (false
            alarms about uncommitted tasks).
        outstanding_units:
            Recovery units already queued but not yet executed.  Only
            stamped on the :class:`~repro.obs.events.ScanStep` with its
            modelled :meth:`analysis_cost`: the batch heal merges the
            queued units, so no cross-unit order is computed.
        """
        uids = tuple(alert.uid if isinstance(alert, Alert) else alert
                     for alert in alerts)
        if self._bus is not None and self._bus.active:
            self._bus.publish(ScanStep(
                self._clock(),
                uid=uids[0] if uids else "",
                outstanding_units=outstanding_units,
                cost=self.analysis_cost(outstanding_units),
            ))
        return uids

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
