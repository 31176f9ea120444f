"""Per-tenant shard: one isolated self-healing world.

Each tenant of the fleet owns a full vertical slice — data store,
epoch-managed system log, self-healing system, event bus, simulated
clock, health monitor, and attack RNG.  Shards share **no mutable
state** with each other; the only cross-shard objects a shard touches
are the fleet's :class:`~repro.obs.metrics.MetricsRegistry` counters,
whose increments commute, so no ordering between shards is observable
in any tenant's results.

The shard's lifecycle is driven by the control plane in tick rounds:

- :meth:`ingest` (serial phase) draws this tick's Poisson attack
  arrivals, executes each attacked workflow for real, and offers the
  IDS alert to the tenant's bounded alert queue — a full queue is a
  *true loss* (the paper's Definition 3, per tenant); lost uids join
  the administrator backlog (Section IV-D) healed at the next commit;
- :meth:`process` (process phase, grant order) consumes centrally granted alerts
  through the real analyzer, advancing the shard clock by the modeled
  service times, and — once the tenant's alert queue is drained — runs
  the batch heal, which rolls the tenant's epoch;
- :meth:`sweep` heals everything still in flight at end of run so the
  final strict-correctness audit covers the whole history.
"""

from __future__ import annotations

import random
from typing import Dict, List

from contextlib import nullcontext
from typing import Optional

from repro.core.epochs import EpochManager
from repro.errors import RecoveryError
from repro.fleet.workload import TenantProfile, prediction_for
from repro.ids.alerts import Alert
from repro.obs.events import EventBus, HealStarted
from repro.obs.health import HealthMonitor, SloState
from repro.obs.perf import PhaseProfiler
from repro.obs.tracing import ManualClock
from repro.system import SelfHealingSystem
from repro.workflow.data import DataStore

__all__ = ["TenantShard"]

#: Tenant SLO verdict → central-queue priority class (lower = served
#: first): a breaching tenant's alerts preempt a healthy tenant's.
PRIORITY_OF_VERDICT: Dict[SloState, int] = {
    SloState.BREACH: 0, SloState.WARN: 1, SloState.OK: 2,
}


class TenantShard:
    """One tenant's sharded self-healing world (see module docstring).

    Parameters
    ----------
    tenant:
        Unique tenant id (``"t0042"``).
    profile:
        Workload archetype (:mod:`repro.fleet.workload`).
    seed:
        Per-tenant RNG seed — the attack process is a pure function of
        ``(profile, seed)``, independent of every other tenant.
    profiled:
        When true, the shard owns a private
        :class:`~repro.obs.perf.PhaseProfiler` (``sim_clock`` = the
        shard clock) that its pipeline phases accumulate into.  The
        control plane drives every shard from its own thread and folds
        the shard stats into the fleet profiler at harvest.
    """

    def __init__(self, tenant: str, profile: TenantProfile,
                 seed: int, profiled: bool = False) -> None:
        self.tenant = tenant
        self.profile = profile
        self.clock = ManualClock(0.0)
        self.bus = EventBus()
        self.profiler: Optional[PhaseProfiler] = (
            PhaseProfiler(sim_clock=self.clock) if profiled else None
        )
        initial = dict(profile.initial_data)
        self.manager = EpochManager(DataStore(initial), initial)
        self.system = SelfHealingSystem(
            manager=self.manager,
            alert_buffer=profile.alert_buffer,
            recovery_buffer=profile.recovery_buffer,
            bus=self.bus,
            clock=self.clock,
            profiler=self.profiler,
        )
        self.monitor = HealthMonitor(prediction_for(profile)).attach(self.bus)
        self._rng = random.Random(seed)
        self._next_arrival = (
            self._rng.expovariate(profile.arrival_rate)
            if profile.arrival_rate > 0 else None
        )
        self._attack_seq = 0
        #: detected_at per accepted-but-unhealed alert uid.
        self._pending_detect: Dict[str, float] = {}
        #: Detect→heal latencies (sim time), in heal order.
        self.latencies: List[float] = []
        #: Lost alerts awaiting an administrator report (Section IV-D).
        self._admin_backlog: List[str] = []
        self.attacks = 0
        self.heals = 0
        self.scans = 0
        self.audits_ok = True
        self.bus.subscribe(self._on_heal_started, types=[HealStarted])

    # -- verdicts ----------------------------------------------------------

    @property
    def verdict(self) -> SloState:
        """The tenant's current worst SLO state."""
        return self.monitor.verdict

    @property
    def priority_class(self) -> int:
        """Central-queue class of this tenant's alerts right now."""
        return PRIORITY_OF_VERDICT[self.verdict]

    @property
    def alerts_lost(self) -> int:
        """Alerts dropped by the tenant's bounded queue (true loss)."""
        return self.system.alerts_lost

    def _on_heal_started(self, event: HealStarted) -> None:
        for uid in event.malicious:
            detected = self._pending_detect.pop(uid, None)
            if detected is not None:
                self.latencies.append(event.time - detected)

    # -- serial phase ------------------------------------------------------

    def ingest(self, until: float) -> List[Alert]:
        """Execute every attack arriving up to sim time ``until``.

        Runs the attacked workflow, offers the alert to the tenant
        queue, and returns the *accepted* alerts (candidates for the
        central scheduling queue).  Rejected alerts are true losses,
        queued for the administrator backlog.
        """
        accepted: List[Alert] = []
        prof = self.profiler
        with (prof.phase("detect") if prof is not None
              else nullcontext()):
            self._ingest_into(accepted, until)
        return accepted

    def _ingest_into(self, accepted: List[Alert],
                     until: float) -> None:
        while (self._next_arrival is not None
               and self._next_arrival <= until):
            arrival = self._next_arrival
            self._next_arrival = arrival + self._rng.expovariate(
                self.profile.arrival_rate
            )
            self.attacks += 1
            self._attack_seq += 1
            spec, campaign, name = self.profile.build_attack(
                self._attack_seq
            )
            self.manager.run_workflow_attacked(spec, campaign, name)
            uid = campaign.malicious_uids[0]
            # Busy shards clamp the alert's event time forward — the
            # shard clock never moves backward.
            self.clock.set(max(arrival, self.clock.now))
            alert = Alert(arrival, uid)
            if self.system.submit_alert(alert):
                self._pending_detect[uid] = arrival
                accepted.append(alert)
            else:
                self._admin_backlog.append(uid)

    # -- process phase -----------------------------------------------------

    def process(self, granted: int, until: float) -> int:
        """Serve ``granted`` centrally scheduled alerts, then heal if
        the alert queue drained.

        Advances the shard clock by the modeled service times (scan:
        ``scan_time × (1 + outstanding units)``; heal: ``unit_time ×
        units``).  Returns the number of granted alerts *not* served —
        the analyzer blocks when the recovery queue fills (Section
        IV-E), and unserved grants return to the central backlog.
        """
        self.clock.set(max(until, self.clock.now))
        served = 0
        for _ in range(granted):
            outstanding = len(self.system.recovery_queue)
            if self.system.recovery_queue.full:
                break  # analyzer blocked; remaining grants deferred
            self.clock.advance(
                self.profile.scan_time * (1 + outstanding)
            )
            if self.system.scan_step() is None:
                raise RecoveryError(
                    f"tenant {self.tenant}: granted alert missing from "
                    "the tenant queue (grant/queue desync)"
                )
            served += 1
            self.scans += 1
        self._maybe_heal()
        return granted - served

    def _maybe_heal(self) -> None:
        """Batch-heal once the alert queue is empty (the paper's
        discipline), folding in administrator reports for lost alerts
        so they are repaired before their epoch archives."""
        if self.system.alerts_queued or not self.system.recovery_units_queued:
            return
        units = self.system.recovery_units_queued
        self.clock.advance(self.profile.unit_recovery_time * units)
        backlog = tuple(self._admin_backlog)
        report = self.system.recovery_step(extra_uids=backlog)
        if report is not None:
            del self._admin_backlog[:len(backlog)]
            self.heals += 1

    # -- end of run --------------------------------------------------------

    def sweep(self, until: float) -> None:
        """Drain everything still in flight at end of run: scan every
        queued alert, heal, and fold in any remaining administrator
        backlog — then audit the whole multi-epoch history."""
        self.clock.set(max(until, self.clock.now))
        guard = 0
        while (self.system.alerts_queued
               or self.system.recovery_units_queued
               or self._admin_backlog):
            guard += 1
            if guard > 100_000:
                raise RecoveryError(
                    f"tenant {self.tenant}: final sweep did not quiesce"
                )
            if self.system.alerts_queued:
                leftover = self.process(self.system.alerts_queued,
                                        self.clock.now)
                if leftover:
                    # Analyzer blocked with alerts pending — the
                    # paper's deadlock-by-overflow.  At end of run the
                    # operator resolves it: remaining queued alerts
                    # become administrator reports folded into the
                    # batch heal of the already-planned units.
                    while self.system.alert_queue:
                        alert = self.system.alert_queue.pop()
                        self._admin_backlog.append(alert.uid)
                    self._maybe_heal()
            elif self.system.recovery_units_queued:
                self._maybe_heal()
            else:
                # Only lost-alert reports remain: a dedicated
                # administrator heal commits them (and rolls the epoch).
                backlog = tuple(self._admin_backlog)
                with (self.profiler.phase("heal")
                      if self.profiler is not None else nullcontext()):
                    self.manager.heal(backlog, bus=self.bus,
                                      clock=self.clock, bracket=True,
                                      profiler=self.profiler)
                del self._admin_backlog[:len(backlog)]
                self.heals += 1
        # Close the monitored trace: unresolved LTLf obligations (an
        # undo decided but never executed, a heal never finished) become
        # conformance violations in the tenant's final verdict.
        self.monitor.finalize()
        with (self.profiler.phase("audit")
              if self.profiler is not None else nullcontext()):
            self.audits_ok = self.manager.audit().ok
