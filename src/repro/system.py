"""The Figure 2 architecture: queues, analyzer, scheduler, states.

This module glues the pieces into the operational structure the paper
draws: an IDS posts alerts into a bounded **alert queue**; the recovery
analyzer drains it, emitting units of recovery tasks into a bounded
**recovery-task queue**; the scheduler executes recovery (and normal)
tasks.  The system is always in one of three states (Section IV-C):

- **NORMAL** — both queues empty; normal tasks execute freely;
- **SCAN** — alerts queued; the analyzer works, recovery tasks are *not*
  executed (a redo might read data a fresh alert is about to condemn);
- **RECOVERY** — alert queue empty, recovery units queued; the scheduler
  executes them.

Semantics faithfully modeled:

- when the recovery queue is full, the analyzer *blocks* (scan steps
  refuse to run) and the alert queue fills; once it is also full,
  further alerts are **lost** (Section IV-E) — the loss the CTMC's
  Definition 3 measures.  A lost alert joins the system's
  administrator backlog: per Section IV-D the administrator reports it
  out of band, and it is healed with the next batch;
- normal-task submission is refused while damage analysis is
  incomplete — strict correctness, the only Section III-D strategy the
  system runs (Theorem 4's consequence:
  "we cannot run any normal task until all malicious tasks reported by
  the IDS have been processed").

The scheduler follows one rule, the CTMC's (recovery runs when a = 0
or r = R): **it drains every queued unit when no alert waits or the
analyzer is blocked, and the drained units commit as one batch heal
together with the administrator backlog as soon as the alert queue is
empty.**  :attr:`SelfHealingSystem.recovery_due` says when a drain is
due, :meth:`SelfHealingSystem.recovery_step` drains and commits, and
:meth:`SelfHealingSystem.sweep` settles everything still in flight at
the end of a run.  Callers keep only their clocks: the fullstack
simulator, the fleet shard and the fuzz episode time the scan and
recovery services and call these three.

The system protects whatever its :class:`~repro.core.epochs.EpochManager`
currently holds and repairs through ``manager.heal``, which heals one
log epoch and then rolls to the next, so the system keeps working
across attack waves.  A scan decides nothing: it pops its alert and
queues its unit, the alert's uid.  The batch heal builds the one
dependency index of the epoch's log and decides the batch's Theorems
1–2 on it, because a unit's "definite" sets are not definite for the
merged batch (a T2.1 redo one scan would decide can fall off the path
when the batch also heals an earlier task of its workflow).  On an
observed run the heal publishes those Theorem 1/2 decisions and the one
Theorem 3 order of the batch inside its ``HealStarted`` bracket, and
its ``TaskUndone``/``TaskRedone`` events are the realized schedule that
the conformance monitor and ``lint plan`` hold against them.
"""

from __future__ import annotations

import time as _time
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.analyzer import RecoveryAnalyzer
from repro.core.epochs import EpochManager
from repro.core.healer import HealReport
from repro.ids.alerts import Alert, BoundedQueue
from repro.obs.events import (
    AlertEnqueued,
    AlertLost,
    EventBus,
    NormalTaskRefused,
    StateTransition,
    UnitEmitted,
)
from repro.obs.perf import active, phase

__all__ = ["SystemState", "SelfHealingSystem"]


class SystemState(str, Enum):
    """The three operating states of Section IV-C."""

    NORMAL = "NORMAL"
    SCAN = "SCAN"
    RECOVERY = "RECOVERY"


class SelfHealingSystem:
    """Operational self-healing workflow system (Figure 2).

    Parameters
    ----------
    manager:
        The :class:`~repro.core.epochs.EpochManager` owning the
        protected workflow system.  The system analyzes the manager's
        current epoch and heals through ``manager.heal``, which rolls
        the epoch.
    alert_buffer:
        Capacity of the IDS-alert queue.
    recovery_buffer:
        Capacity of the recovery-task queue (the performance-critical
        buffer of Section IV-E).
    bus:
        Optional :class:`repro.obs.events.EventBus`; when attached, the
        system publishes typed events: one per offered alert
        (enqueued or lost), one ``UnitEmitted`` per scan, state
        transitions and the heal lifecycle.  Its queues publish
        nothing of their own.  ``None`` (the default) makes every
        instrumentation site a single ``None`` check — no events are
        built.
    clock:
        Zero-argument callable supplying event timestamps; defaults to
        ``time.monotonic``.  Inject a
        :class:`repro.obs.tracing.ManualClock` to stamp events with
        simulated time.

    Under a recording profiler (:mod:`repro.obs.perf`) the pipeline
    records the phases ``analyze``, ``schedule`` (a drain that does not
    commit) and ``heal``, and each alert's queue dwell as the sim-time
    ``buffer-wait`` line item beside them.
    """

    def __init__(
        self,
        manager: EpochManager,
        alert_buffer: int = 15,
        recovery_buffer: int = 15,
        bus: Optional[EventBus] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._manager = manager
        self._alerts: BoundedQueue[Alert] = BoundedQueue(alert_buffer)
        #: Units of recovery tasks: each scan's alert uids.
        self._units: BoundedQueue[Tuple[str, ...]] = BoundedQueue(
            recovery_buffer)
        self._bus = bus
        self._clock = clock if clock is not None else _time.monotonic  # lint: allow[DET001] injectable clock; wall time is the live default
        self._last_state = self.state
        #: uid → clock time at enqueue, for buffer-wait attribution.
        self._enqueued_at: Dict[str, float] = {}
        #: Alert uids of units drained but not yet committed.
        self._drained: List[str] = []
        #: Lost alerts awaiting their administrator report (Section IV-D).
        self._backlog: List[str] = []

    @property
    def manager(self) -> EpochManager:
        """The epoch manager owning the protected system."""
        return self._manager

    # -- observable state ---------------------------------------------------

    @property
    def state(self) -> SystemState:
        """Current state per Section IV-C."""
        if self._alerts:
            return SystemState.SCAN
        if self._units:
            return SystemState.RECOVERY
        return SystemState.NORMAL

    @property
    def alerts_queued(self) -> int:
        """Alerts waiting for the analyzer."""
        return len(self._alerts)

    @property
    def recovery_units_queued(self) -> int:
        """Units of recovery tasks waiting for the scheduler: one per
        scan, since each scan analyzes one alert."""
        return len(self._units)

    @property
    def recovery_due(self) -> bool:
        """Should the scheduler drain the queued units now?  Yes when
        units are queued and no alert waits, or the analyzer is blocked
        by a full recovery queue (Section IV-E)."""
        return bool(self._units) and (not self._alerts or self._units.full)

    @property
    def alerts_lost(self) -> int:
        """Alerts rejected because the alert queue was full."""
        return self._alerts.lost

    @property
    def alert_queue(self) -> BoundedQueue:
        """The bounded IDS-alert queue (read access for instrumentation)."""
        return self._alerts

    @property
    def recovery_queue(self) -> BoundedQueue:
        """The bounded recovery-task queue of scanned units (read
        access for instrumentation)."""
        return self._units

    # -- instrumentation ----------------------------------------------------

    def _note_state(self) -> None:
        """Publish a StateTransition if the operating state changed."""
        new = self.state
        if new is not self._last_state:
            self._bus.publish(StateTransition(
                self._clock(), old=self._last_state.value, new=new.value,
            ))
            self._last_state = new

    # -- the three flows ---------------------------------------------------------

    def submit_alert(self, alert: Union[Alert, str]) -> bool:
        """Offer an IDS alert; ``False`` when it was lost (queue full).

        A lost alert joins the administrator backlog, healed with the
        next commit."""
        if isinstance(alert, str):
            alert = Alert(0.0, alert)
        accepted = self._alerts.offer(alert)
        if not accepted:
            self._backlog.append(alert.uid)
        elif active() is not None:
            self._enqueued_at[alert.uid] = self._clock()
        if self._bus is not None and self._bus.active:
            cls = AlertEnqueued if accepted else AlertLost
            self._bus.publish(cls(
                self._clock(), uid=alert.uid,
                queue_depth=len(self._alerts),
            ))
            self._note_state()
        return accepted

    def scan_step(self) -> Optional[Tuple[str, ...]]:
        """Let the analyzer process one queued alert.

        Returns the queued recovery unit (the alert's uid), or ``None``
        when there is nothing to scan or the analyzer is blocked by a
        full recovery queue (Section IV-E), so the push never overflows.
        An observed scan publishes one ``UnitEmitted``: the alert's uid
        and the recovery queue's depth after the push.
        """
        if not self._alerts or self._units.full:
            return None
        with phase("analyze"):
            alert = self._alerts.pop()
            prof = active()
            if prof is not None:
                queued_at = self._enqueued_at.pop(alert.uid, None)
                if queued_at is not None:
                    # Queue dwell in the system clock's units (sim time
                    # when a ManualClock is injected), filed beside this
                    # phase — no wall time burns while an alert waits,
                    # so the wall side stays zero.
                    prof.add_external("buffer-wait", 0.0,
                                      sim=self._clock() - queued_at)
            unit = RecoveryAnalyzer(self._manager.log).analyze([alert])
            self._units.push(unit)
            if self._bus is not None and self._bus.active:
                self._bus.publish(UnitEmitted(
                    self._clock(), queue_depth=len(self._units),
                    uid=alert.uid,
                ))
                self._note_state()
        return unit

    def recovery_step(self) -> Optional[HealReport]:
        """The scheduler's turn: drain every queued unit, then commit
        the drained units and the administrator backlog as one batch
        heal if no alert waits.

        Call it when :attr:`recovery_due` holds; a timed caller asks at
        the start of its recovery service and calls this at its end.
        Returns the heal report, or ``None`` when the step only drained
        (alerts still wait: the batch is not yet "all damages of the
        system are identified") or there was nothing to run.
        """
        if self._alerts:
            with phase("schedule"):
                self._drain()
            return None
        if not (self._units or self._drained):
            return None
        return self._commit()

    def sweep(self) -> List[HealReport]:
        """Settle the pipeline at the end of a run; advances no clock.

        Scans every alert still queued (draining whenever the analyzer
        blocks), so each healed uid was scanned; commits everything
        drained plus the administrator backlog as one heal; then rolls
        an epoch that still holds unhealed normal records, so an audit
        covers them.  Returns the heal reports, in
        commit order.
        """
        while self._alerts:
            if self._units.full:
                self._drain()
            self.scan_step()
        reports = []
        if self._units or self._drained or self._backlog:
            reports.append(self._commit())
        if self._manager.log.normal_records():
            reports.append(self._commit())
        return reports

    def _drain(self) -> None:
        """Move every queued unit's alert uids to the drained batch."""
        while self._units:
            self._drained.extend(self._units.pop())

    def _commit(self) -> HealReport:
        """Drain the queued units, then heal every drained unit and
        the backlog as one batch."""
        with phase("heal"):
            self._drain()
            uids = self._drained + self._backlog
            self._drained, self._backlog = [], []
            # The manager heals against its epoch baseline and rolls the
            # epoch, so the system keeps protecting the post-heal world.
            report = self._manager.heal(uids, bus=self._bus,
                                        clock=self._clock)
        if self._bus is not None and self._bus.active:
            self._note_state()
        return report

    def normal_task_admissible(self) -> bool:
        """May a normal task run right now?

        Under strict correctness, normal tasks wait whenever damage
        analysis or repair is in progress (SCAN or RECOVERY).
        """
        admissible = self.state is SystemState.NORMAL
        if not admissible and self._bus is not None and self._bus.active:
            self._bus.publish(NormalTaskRefused(
                self._clock(), state=self.state.value,
            ))
        return admissible
