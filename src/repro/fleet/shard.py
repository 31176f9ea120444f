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
  *true loss* (the paper's Definition 3, per tenant), and the system
  keeps the lost uid for the administrator (Section IV-D);
- :meth:`process` (process phase, grant order) consumes centrally
  granted alerts through the real analyzer and runs the recovery the
  system says is due, advancing the shard clock by the modeled service
  times;
- :meth:`sweep` settles everything still in flight at end of run so the
  final strict-correctness audit covers the whole history.

The pipeline's rules are :class:`~repro.system.SelfHealingSystem`'s;
the shard owns only its clock and service times.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.core.epochs import EpochManager
from repro.errors import RecoveryError
from repro.fleet.workload import TenantProfile, prediction_for
from repro.ids.alerts import Alert
from repro.obs.events import EventBus, HealStarted
from repro.obs.health import HealthMonitor, SloState
from repro.obs.perf import PhaseProfiler, phase, recording
from repro.obs.tracing import ManualClock
from repro.system import SelfHealingSystem
from repro.workflow.data import DataStore

__all__ = ["TenantShard"]

#: Tenant SLO verdict → central-queue priority class (lower = served
#: first): a breaching tenant's alerts preempt a healthy tenant's.
PRIORITY_OF_VERDICT: Dict[SloState, int] = {
    SloState.BREACH: 0, SloState.WARN: 1, SloState.OK: 2,
}


class _DetectToHeal:
    """Detect→heal latency of each accepted alert, closed by the
    :class:`~repro.obs.events.HealStarted` that names its uid.

    Subscribed to the shard's bus on its own: it holds neither the
    shard nor the bus, so the bus's handler list makes no reference
    cycle and a finished shard is freed by refcount.
    """

    __slots__ = ("pending", "latencies")

    def __init__(self) -> None:
        self.pending: Dict[str, float] = {}
        self.latencies: List[float] = []

    def __call__(self, event: HealStarted) -> None:
        for uid in event.malicious:
            detected = self.pending.pop(uid, None)
            if detected is not None:
                self.latencies.append(event.time - detected)


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
        shard clock) that :meth:`ingest`, :meth:`process` and
        :meth:`sweep` record into.  The control plane folds the shard
        stats into the fleet profiler at harvest.
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
        )
        self.monitor = HealthMonitor(prediction_for(profile)).attach(self.bus)
        self._rng = random.Random(seed)
        self._next_arrival = (
            self._rng.expovariate(profile.arrival_rate)
            if profile.arrival_rate > 0 else None
        )
        self._attack_seq = 0
        detect_to_heal = _DetectToHeal()
        #: detected_at per accepted-but-unhealed alert uid.
        self._pending_detect = detect_to_heal.pending
        #: Detect→heal latencies (sim time), in heal order.
        self.latencies = detect_to_heal.latencies
        self.attacks = 0
        self.heals = 0
        self.scans = 0
        self.audits_ok = True
        self.bus.subscribe(detect_to_heal, types=[HealStarted])

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

    # -- serial phase ------------------------------------------------------

    def ingest(self, until: float) -> List[Alert]:
        """Execute every attack arriving up to sim time ``until``.

        Runs the attacked workflow, offers the alert to the tenant
        queue, and returns the *accepted* alerts (candidates for the
        central scheduling queue).  Rejected alerts are true losses,
        left to the system's administrator backlog.
        """
        accepted: List[Alert] = []
        with recording(self.profiler), phase("detect"):
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

    # -- process phase -----------------------------------------------------

    def process(self, granted: int, until: float) -> None:
        """Serve ``granted`` centrally scheduled alerts, running each
        recovery the system says is due.

        Advances the shard clock by the modeled service times (scan:
        ``scan_time × (1 + outstanding units)``; recovery: ``unit_time ×
        units``).  A full recovery queue blocks the analyzer (Section
        IV-E), so the queued units are drained before the next scan.
        """
        with recording(self.profiler):
            self.clock.set(max(until, self.clock.now))
            for _ in range(granted):
                self._recover_if_due()
                self.clock.advance(
                    self.profile.scan_time
                    * (1 + len(self.system.recovery_queue))
                )
                if self.system.scan_step() is None:
                    raise RecoveryError(
                        f"tenant {self.tenant}: granted alert missing "
                        "from the tenant queue (grant/queue desync)"
                    )
                self.scans += 1
            self._recover_if_due()

    def _recover_if_due(self) -> None:
        """Run the queued units if the system says a drain is due."""
        if not self.system.recovery_due:
            return
        self.clock.advance(
            self.profile.unit_recovery_time
            * self.system.recovery_units_queued
        )
        if self.system.recovery_step() is not None:
            self.heals += 1

    # -- end of run --------------------------------------------------------

    def sweep(self, until: float) -> None:
        """Settle everything still in flight at end of run, then audit
        the whole multi-epoch history."""
        with recording(self.profiler):
            self.clock.set(max(until, self.clock.now))
            self.heals += len(self.system.sweep())
            # Close the monitored trace: unresolved LTLf obligations
            # (an undo decided but never executed, a heal never
            # finished) become conformance violations.
            self.monitor.finalize()
            with phase("audit"):
                self.audits_ok = self.manager.audit().ok
